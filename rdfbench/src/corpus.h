// The benchmark's inputs and the expected outputs, derived from the
// generated corpus alone (never from the store under test).
//
// The corpus is gen::GenerateUniProt at the benchmark's seed: protein
// records with cross-references, citations, blank-node annotations and
// keyword bags, plus the paper's ~5 % reified statements. The base
// statements go to an N-Triples file that the store bulk-loads; the
// reified ones are reified (and asserted about by their curator) inside
// the same write batch.
//
// Query results are compared as order-independent fingerprints: the row
// count plus the sum of per-row hashes. A cell is the term's N-Triples
// text as the server renders it; blank nodes compare as "_:" because
// the store renames them.
#ifndef RDFBENCH_CORPUS_H_
#define RDFBENCH_CORPUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "gen/uniprot_gen.h"
#include "rdf/bulk_load.h"
#include "rdf/rdf_store.h"

namespace rdfbench {

inline constexpr const char* kModel = "uniprot";
inline constexpr size_t kScanLimit = 2000;

/// Hash of one cell's N-Triples text (blank nodes already folded to "_:").
uint64_t CellHash(std::string_view cell);
/// Hash of a row from its cells' hashes (position-dependent).
uint64_t RowHash(const uint64_t* cell_hashes, size_t n);

/// Order-independent multiset fingerprint of result rows.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(uint64_t row_hash) {
    ++rows;
    sum += row_hash;
  }
  bool operator==(const Fingerprint& other) const {
    return rows == other.rows && sum == other.sum;
  }
};

/// Parse a /query response body ({"columns": [...], "rows": [[...]...]})
/// into a fingerprint. `row_check`, when set, sees every row's cells and
/// can reject it. Returns false on malformed JSON or a rejected row.
bool FingerprintBody(
    const std::string& body, Fingerprint* fingerprint,
    const std::function<bool(const std::vector<std::string>&)>& row_check =
        {});

/// The three read shapes the workloads issue.
std::string SubjectQuery(const std::string& subject_uri);
std::string JoinQuery(const std::string& subject_uri);
std::string ScanQuery();
/// "/query?q=...&model=uniprot[&limit=N]".
std::string QueryTarget(const std::string& patterns, size_t limit = 0);

/// Load the corpus into `live` (call inside SnapshotRdfStore::Apply):
/// BulkLoadFile of the base statements, then reify each reified
/// statement and assert its curator about it.
struct LoadOutcome {
  rdfdb::rdf::BulkLoadStats bulk;
  int64_t reify_ns = 0;
};
rdfdb::Status LoadCorpus(rdfdb::rdf::RdfStore& live, const std::string& path,
                         const std::vector<rdfdb::gen::ReifiedStatement>& reified,
                         LoadOutcome* outcome);

/// One fresh statement batch for /insert: `count` statements about a new
/// protein `subject_uri` (no rdfs:seeAlso, so the join queries never see
/// it). Returns the N-Triples body; `*expected` is the fingerprint a
/// subject lookup of `subject_uri` must return afterwards.
std::string InsertBody(const std::string& subject_uri, size_t serial,
                       size_t count, Fingerprint* expected);

/// Expected outputs computed from the generated corpus.
class Expectations {
 public:
  explicit Expectations(const rdfdb::gen::UniProtDataset& dataset);

  /// Distinct triples the model holds after LoadCorpus.
  size_t distinct_triples() const { return distinct_triples_; }
  /// Protein subject URIs (lexical form), the probe subject first.
  const std::vector<std::string>& proteins() const { return proteins_; }

  Fingerprint SubjectRows(size_t protein) const;
  /// Rows of JoinQuery(proteins()[protein]), computed on each call.
  Fingerprint JoinRows(size_t protein) const;
  /// True when a (?s ?p ?o) row is a stored triple: a base statement, a
  /// streamlined reification row or a curator's assertion about one.
  bool ScanRowOk(const std::vector<std::string>& cells) const;

 private:
  size_t distinct_triples_ = 0;
  std::vector<std::string> proteins_;
  std::vector<Fingerprint> subject_rows_;
  // Join inputs: per protein its distinct cross-reference targets; per
  // target the distinct proteins referencing it; per protein the hashes
  // of its distinct mnemonics.
  std::vector<std::vector<uint32_t>> refs_;
  std::vector<std::vector<uint32_t>> referrers_;
  std::vector<uint64_t> target_hash_;
  std::vector<uint64_t> protein_hash_;
  std::vector<std::vector<uint64_t>> mnemonic_hashes_;
  std::unordered_set<uint64_t> base_rows_;  ///< (s, p, o) row hashes
};

}  // namespace rdfbench

#endif  // RDFBENCH_CORPUS_H_
