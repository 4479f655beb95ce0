// Fragment advisor: classify XPath queries against the paper's Figure 1
// taxonomy, report the combined complexity of their fragment, explain which
// restrictions they violate, and suggest rewrites (Remark 5.2 normalization,
// Theorem 5.9 negation pushdown) that move them into cheaper fragments.
//
//   ./example_fragment_advisor 'query1' 'query2' ...     (or no args: demo)

#include <cstdio>
#include <string>
#include <vector>

#include "xpath/fragment.hpp"
#include "xpath/optimize.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"
#include "xpath/transform.hpp"

namespace {

void Advise(const std::string& text) {
  std::printf("query: %s\n", text.c_str());
  auto query = gkx::xpath::ParseQuery(text);
  if (!query.ok()) {
    std::printf("  %s\n\n", query.status().ToString().c_str());
    return;
  }
  gkx::xpath::FragmentReport report = gkx::xpath::Classify(*query);
  std::printf("  smallest fragment:   %s\n",
              std::string(gkx::xpath::FragmentName(report.smallest)).c_str());
  std::printf("  combined complexity: %s\n",
              std::string(gkx::xpath::FragmentComplexity(report.smallest))
                  .c_str());
  for (const std::string& note : gkx::xpath::ExplainFragments(*query)) {
    std::printf("  note: %s\n", note.c_str());
  }

  // Suggest rewrites if they lower the fragment.
  gkx::xpath::Query normalized = gkx::xpath::NormalizeIteratedPredicates(*query);
  gkx::xpath::FragmentReport normalized_report = gkx::xpath::Classify(normalized);
  if (normalized_report.smallest < report.smallest) {
    std::printf("  rewrite (Remark 5.2, fold iterated predicates):\n    %s\n"
                "    -> now in %s\n",
                gkx::xpath::ToXPathString(normalized).c_str(),
                std::string(gkx::xpath::FragmentName(normalized_report.smallest))
                    .c_str());
  }
  gkx::xpath::Query pushed = gkx::xpath::PushNegationsDown(*query);
  gkx::xpath::FragmentReport pushed_report = gkx::xpath::Classify(pushed);
  if (pushed_report.smallest < report.smallest) {
    std::printf("  rewrite (Theorem 5.9, push negations down):\n    %s\n"
                "    -> now in %s\n",
                gkx::xpath::ToXPathString(pushed).c_str(),
                std::string(gkx::xpath::FragmentName(pushed_report.smallest))
                    .c_str());
  }
  gkx::xpath::OptimizeStats stats;
  gkx::xpath::Query optimized = gkx::xpath::Optimize(*query, &stats);
  if (stats.Total() > 0) {
    std::printf("  simplification (%d rewrites): %s\n", stats.Total(),
                gkx::xpath::ToXPathString(optimized).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> queries;
  for (int i = 1; i < argc; ++i) queries.emplace_back(argv[i]);
  if (queries.empty()) {
    queries = {
        "/descendant::a/child::b",
        "child::a[descendant::c and not(following-sibling::d)]",
        "child::a[position() + 1 = last()]",
        "a[b][c]",
        "a[not(position() = 2)]",
        "a[count(child::b) >= 2]",
        "a[boolean(b) = true()]",
    };
  }
  for (const std::string& text : queries) Advise(text);
  return 0;
}
