// Cost of one served write: a 3-statement SnapshotRdfStore::Apply into
// a bulk-loaded UniProt-shaped model while a published version is
// pinned, so every posting shard and chunk the write touches is still
// shared and must be copied first (DESIGN.md §12).
//
// For each model size the harness bulk-loads the corpus (plus its
// reified statements, as rdfbench does; the load's time is reported
// too), then runs 40 Applies, each inserting three statements about a
// fresh subject, and reports medians of: the insert time (inside the
// Apply), the publish time (the rest of the Apply, including freeing
// the displaced version), the calling thread's heap allocations and
// bytes across the whole Apply, and the chunk and shard bytes it
// copied (rdfdb_cow_copied_bytes_total).
//
// Not a google-benchmark binary: each sample needs a pinned version
// set up around it and per-phase timing inside the Apply.
//
//   bench_served_write      # 10 k, 50 k and 100 k-triple targets, seed 1

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/uniprot_gen.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "rdf/vocab.h"

namespace rdfdb::bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Sample {
  int64_t insert_ns = 0;
  int64_t publish_ns = 0;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  int64_t copied = 0;  ///< chunk and shard bytes copied on write
};

int Run(size_t target, int writes, uint64_t seed) {
  gen::UniProtOptions options;
  options.target_triples = target;
  options.seed = seed;
  rdf::SnapshotRdfStore store;
  int64_t load_ns = 0;
  {
    gen::UniProtDataset dataset = gen::GenerateUniProt(options);
    if (!store.CreateRdfModel("m", "m_app", "triple").ok()) return 1;
    const int64_t load_start = NowNs();
    Status loaded = store.Apply([&](rdf::RdfStore& live) -> Status {
      RDFDB_RETURN_NOT_OK(rdf::BulkLoad(&live, "m", dataset.triples).status());
      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId model_id, live.GetModelId("m"));
      for (const gen::ReifiedStatement& r : dataset.reified) {
        RDFDB_ASSIGN_OR_RETURN(
            rdf::SdoRdfTripleS base,
            live.InsertParsedTriple(model_id, r.base.subject,
                                    r.base.predicate, r.base.object));
        RDFDB_RETURN_NOT_OK(live.AssertAboutTriple("m", r.curator_uri,
                                                   gen::kUpCuratedBy,
                                                   base.rdf_t_id())
                                .status());
      }
      return Status::OK();
    });
    load_ns = NowNs() - load_start;
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.ToString().c_str());
      return 1;
    }
  }
  size_t triples = 0;
  {
    rdf::SnapshotRdfStore::ReadPin pin = store.Snapshot();
    triples = pin->TripleCount(*pin->GetModelId("m"));
  }

  const obs::Counter* copied =
      store.metrics_registry().FindCounter("rdfdb_cow_copied_bytes_total");
  std::vector<Sample> samples;
  for (int k = 0; k < writes; ++k) {
    // The body an /insert request carries; parsed outside the Apply,
    // as the server does.
    const std::string subject = "<urn:lsid:uniprot.org:uniprot:W" +
                                std::to_string(k) + "> ";
    const std::string body =
        subject + "<" + std::string(rdf::kRdfType) + "> <" +
        gen::kUpProtein + "> .\n" + subject + "<" + gen::kUpMnemonic +
        "> \"W" + std::to_string(k) + "_BENCH\" .\n" + subject + "<" +
        std::string(rdf::kRdfsLabel) + "> \"Written protein " +
        std::to_string(k) + "\"@en .\n";
    auto statements = rdf::ParseNTriplesDocument(body);
    if (!statements.ok()) {
      std::fprintf(stderr, "parse: %s\n",
                   statements.status().ToString().c_str());
      return 1;
    }
    const rdf::SnapshotRdfStore::ReadPin pin = store.Snapshot();
    Sample s;
    int64_t enter = 0, exit = 0;
    const int64_t copied0 = copied->Value();
    const uint64_t allocs0 = obs::ThreadAllocationCount();
    const uint64_t bytes0 = obs::ThreadAllocatedBytes();
    Status applied = store.Apply([&](rdf::RdfStore& live) -> Status {
      enter = NowNs();
      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId model_id, live.GetModelId("m"));
      for (const rdf::NTriple& nt : *statements) {
        RDFDB_RETURN_NOT_OK(live.InsertParsedTriple(model_id, nt.subject,
                                                    nt.predicate, nt.object)
                                .status());
      }
      exit = NowNs();
      return Status::OK();
    });
    const int64_t ret = NowNs();
    s.allocs = obs::ThreadAllocationCount() - allocs0;
    s.bytes = obs::ThreadAllocatedBytes() - bytes0;
    s.copied = copied->Value() - copied0;
    if (!applied.ok()) {
      std::fprintf(stderr, "apply: %s\n", applied.ToString().c_str());
      return 1;
    }
    s.insert_ns = exit - enter;
    s.publish_ns = ret - exit;
    samples.push_back(s);
  }
  auto pick = [&](auto field) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(static_cast<double>(s.*field));
    return Median(v);
  };
  std::printf(
      "{\"triples\": %zu, \"load_ms\": %.1f, \"writes\": %d, "
      "\"insert_us\": %.1f, \"publish_us\": %.1f, \"allocs\": %.0f, "
      "\"alloc_bytes\": %.0f, \"copied_bytes\": %.0f}\n",
      triples, static_cast<double>(load_ns) / 1e6, writes,
      pick(&Sample::insert_ns) / 1e3,
      pick(&Sample::publish_ns) / 1e3, pick(&Sample::allocs),
      pick(&Sample::bytes), pick(&Sample::copied));
  return 0;
}

}  // namespace
}  // namespace rdfdb::bench

int main() {
  for (size_t target : {10000, 50000, 100000}) {
    if (int rc = rdfdb::bench::Run(target, /*writes=*/40, /*seed=*/1);
        rc != 0) {
      return rc;
    }
  }
  return 0;
}
