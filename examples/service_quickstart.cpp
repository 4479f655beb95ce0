// The serving layer in five minutes: register documents, submit single
// queries and a mixed batch, patch a document with a subtree edit, read
// the stats the service keeps for you.
//
//   ./example_service_quickstart

#include <cstdio>

#include "service/query_service.hpp"
#include "xml/edit.hpp"
#include "xml/parser.hpp"

int main() {
  gkx::service::QueryService service;

  GKX_CHECK(service
                .RegisterXml("store",
                             "<inventory>"
                             "  <book genre='cs'><title>AI</title></book>"
                             "  <book genre='db'><title>XPath</title></book>"
                             "  <cd><title>Goldberg</title></cd>"
                             "</inventory>")
                .ok());
  GKX_CHECK(service
                .RegisterXml("org",
                             "<org><team><eng/><eng/></team>"
                             "<team><eng/><sales/></team></org>")
                .ok());

  // Single submits. The first compiles and caches a plan; the repeat hits.
  auto titles = service.Submit("store", "//book/child::title");
  GKX_CHECK(titles.ok());
  std::printf("//book/child::title -> %s via %s\n",
              titles->value.DebugString().c_str(), titles->evaluator.c_str());
  GKX_CHECK(service.Submit("store", "//book/child::title").ok());

  // A mixed batch: cache hits are served on this thread, and the batch
  // forks onto the shared thread pool at its first miss. Requests fail
  // independently: the bad key poisons nothing.
  auto batch = service.SubmitBatch({
      {"store", "//book/child::title"},
      {"store", "/descendant::book[child::title]"},
      {"org", "count(/descendant::eng)"},
      {"nope", "//anything"},
  });
  for (size_t i = 0; i < batch.size(); ++i) {
    std::printf("batch[%zu]: %s\n", i,
                batch[i].ok() ? batch[i]->value.DebugString().c_str()
                              : batch[i].status().ToString().c_str());
  }

  // Mutation as a subtree patch: splice a third <book> under <inventory>
  // (node 0) instead of re-sending the whole document. Cached answers
  // whose footprints never mention the edited region's names survive the
  // update (answer_cache.retained below); //book entries re-evaluate.
  gkx::xml::SubtreeEdit edit;
  edit.kind = gkx::xml::SubtreeEdit::Kind::kInsertSubtree;
  edit.target = 0;
  edit.position = 2;  // between the second book and the cd
  edit.subtree = *gkx::xml::ParseDocument(
      "<book genre='pl'><title>Datalog</title></book>");
  GKX_CHECK(service.UpdateDocument("store", edit).ok());
  auto patched = service.Submit("store", "count(/descendant::book)");
  GKX_CHECK(patched.ok());
  std::printf("after patch: count(/descendant::book) -> %s\n",
              patched->value.DebugString().c_str());

  // Service-level observability.
  gkx::service::ServiceStats stats = service.Stats();
  std::printf("\nrequests=%lld failures=%lld documents=%zu\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.failures), stats.documents);
  std::printf("plan cache: hits=%lld canonical=%lld misses=%lld (rate %.2f)\n",
              static_cast<long long>(stats.plan_cache.hits),
              static_cast<long long>(stats.plan_cache.canonical_hits),
              static_cast<long long>(stats.plan_cache.misses),
              stats.plan_cache.HitRate());
  for (const auto& [route, count] : stats.segment_route_counts) {
    std::printf("  %-12s %lld executions\n", route.c_str(),
                static_cast<long long>(count));
  }
  std::printf("latency: p50=%.3fms p99=%.3fms over %lld requests\n",
              stats.latency.p50, stats.latency.p99,
              static_cast<long long>(stats.latency.count));
  return 0;
}
