// Quickstart: parse an XML document, run XPath queries through the Engine
// facade (which classifies each step against the paper's fragment taxonomy
// and runs the plan on the matching evaluation algorithms), and print the
// results.
//
//   ./example_quickstart                # built-in document and queries
//   ./example_quickstart doc.xml 'query1' 'query2' ...

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/engine.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace {

constexpr const char* kDefaultXml = R"(<library>
  <shelf genre="theory">
    <book year="1994"><title>Computational Complexity</title></book>
    <book year="1995"><title>Limits to Parallel Computation</title></book>
  </shelf>
  <shelf genre="databases">
    <book year="1999"><title>XML Path Language</title></book>
  </shelf>
</library>)";

const char* kDefaultQueries[] = {
    "/descendant::book/child::title",
    "/descendant::shelf[child::book/child::title]",
    "/descendant::book[position() = last()]",
    "count(/descendant::book)",
    "/descendant::shelf[not(child::book[2])]",
    "string(/descendant::title)",
};

}  // namespace

int main(int argc, char** argv) {
  std::string xml = kDefaultXml;
  std::vector<std::string> queries;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    xml = buffer.str();
    for (int i = 2; i < argc; ++i) queries.emplace_back(argv[i]);
  }
  if (queries.empty()) {
    for (const char* q : kDefaultQueries) queries.emplace_back(q);
  }

  auto doc = gkx::xml::ParseDocument(xml);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("document: %d element nodes, depth %d\n\n", doc->size(),
              doc->Stats().max_depth);

  gkx::eval::Engine engine;
  for (const std::string& text : queries) {
    auto answer = engine.Run(*doc, text);
    if (!answer.ok()) {
      std::printf("query:    %s\n  error: %s\n\n", text.c_str(),
                  answer.status().ToString().c_str());
      continue;
    }
    std::printf("query:    %s\n", text.c_str());
    std::printf("fragment: %s  —  %s\n",
                std::string(gkx::xpath::FragmentName(answer->fragment.smallest))
                    .c_str(),
                std::string(gkx::xpath::FragmentComplexity(
                                answer->fragment.smallest))
                    .c_str());
    std::printf("engine:   %s\n", answer->evaluator.c_str());
    if (answer->value.is_node_set()) {
      std::printf("result:   %zu node(s)\n", answer->value.nodes().size());
      for (gkx::xml::NodeId v : answer->value.nodes()) {
        std::printf("  <%s>  string-value: \"%s\"\n",
                    std::string(doc->TagName(v)).c_str(),
                    doc->StringValue(v).c_str());
      }
    } else {
      std::printf("result:   %s\n", answer->value.DebugString().c_str());
    }
    std::printf("\n");
  }
  return 0;
}
