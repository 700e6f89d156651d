#include "corpus.h"

#include <chrono>
#include <set>
#include <utility>

#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "server/http.h"

namespace rdfbench {

using rdfdb::Status;
using rdfdb::rdf::NTriple;
using rdfdb::rdf::Term;

namespace {

constexpr uint64_t kColumnSalt[] = {0x9E3779B97F4A7C15ull,
                                    0xC2B2AE3D27D4EB4Full,
                                    0x165667B19E3779F9ull,
                                    0xD6E8FEB86659FD93ull};
constexpr const char* kCuratedBy = "http://purl.uniprot.org/core/curatedBy";
constexpr const char* kDbUriPrefix = "</ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=";

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::string CellText(const Term& term) {
  return term.is_blank() ? std::string("_:") : term.ToNTriples();
}

uint64_t TermHash(const Term& term) { return CellHash(CellText(term)); }

std::string Uri(std::string_view text) {
  std::string out = "<";
  out.append(text).push_back('>');
  return out;
}

/// Append one JSON string starting at body[*pos] (the opening quote),
/// unescaped, to *out. Advances *pos past the closing quote.
bool ParseJsonString(const std::string& body, size_t* pos, std::string* out) {
  size_t i = *pos;
  if (i >= body.size() || body[i] != '"') return false;
  ++i;
  out->clear();
  while (i < body.size()) {
    const char c = body[i++];
    if (c == '"') {
      *pos = i;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= body.size()) return false;
    const char e = body[i++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 > body.size()) return false;
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = body[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

void SkipSpace(const std::string& body, size_t* pos) {
  while (*pos < body.size() &&
         (body[*pos] == ' ' || body[*pos] == '\n' || body[*pos] == '\t' ||
          body[*pos] == '\r')) {
    ++*pos;
  }
}

/// Parse a JSON array of strings at body[*pos] ('[') into cells.
bool ParseStringArray(const std::string& body, size_t* pos,
                      std::vector<std::string>* cells) {
  size_t i = *pos;
  if (i >= body.size() || body[i] != '[') return false;
  ++i;
  size_t n = 0;
  SkipSpace(body, &i);
  if (i < body.size() && body[i] == ']') {
    cells->resize(0);
    *pos = i + 1;
    return true;
  }
  for (;;) {
    SkipSpace(body, &i);
    if (cells->size() <= n) cells->emplace_back();
    if (!ParseJsonString(body, &i, &(*cells)[n])) return false;
    ++n;
    SkipSpace(body, &i);
    if (i >= body.size()) return false;
    if (body[i] == ',') {
      ++i;
      continue;
    }
    if (body[i] != ']') return false;
    cells->resize(n);
    *pos = i + 1;
    return true;
  }
}

}  // namespace

uint64_t CellHash(std::string_view cell) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : cell) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return Mix(h);
}

uint64_t RowHash(const uint64_t* cell_hashes, size_t n) {
  uint64_t h = 0;
  for (size_t i = 0; i < n; ++i) h += cell_hashes[i] * kColumnSalt[i % 4];
  return Mix(h + n);
}

bool FingerprintBody(
    const std::string& body, Fingerprint* fingerprint,
    const std::function<bool(const std::vector<std::string>&)>& row_check) {
  *fingerprint = Fingerprint{};
  size_t pos = body.find("\"rows\"");
  if (pos == std::string::npos) return false;
  pos = body.find('[', pos);
  if (pos == std::string::npos) return false;
  ++pos;
  std::vector<std::string> cells;
  std::vector<uint64_t> hashes;
  for (;;) {
    SkipSpace(body, &pos);
    if (pos >= body.size()) return false;
    if (body[pos] == ']') return true;
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    if (!ParseStringArray(body, &pos, &cells)) return false;
    hashes.resize(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].rfind("_:", 0) == 0) cells[c] = "_:";
      hashes[c] = CellHash(cells[c]);
    }
    if (row_check && !row_check(cells)) return false;
    fingerprint->Add(RowHash(hashes.data(), hashes.size()));
  }
}

std::string SubjectQuery(const std::string& subject_uri) {
  return "(<" + subject_uri + "> ?p ?o)";
}

std::string JoinQuery(const std::string& subject_uri) {
  const std::string see_also = Uri(rdfdb::rdf::kRdfsSeeAlso);
  return "(<" + subject_uri + "> " + see_also + " ?x) (?q " + see_also +
         " ?x) (?q " + Uri(rdfdb::gen::kUpMnemonic) + " ?m)";
}

std::string ScanQuery() { return "(?s ?p ?o)"; }

std::string QueryTarget(const std::string& patterns, size_t limit) {
  std::string target = "/query?q=" + rdfdb::server::PercentEncode(patterns) +
                       "&model=" + kModel;
  if (limit > 0) target += "&limit=" + std::to_string(limit);
  return target;
}

Status LoadCorpus(rdfdb::rdf::RdfStore& live, const std::string& path,
                  const std::vector<rdfdb::gen::ReifiedStatement>& reified,
                  LoadOutcome* outcome) {
  RDFDB_ASSIGN_OR_RETURN(outcome->bulk,
                         rdfdb::rdf::BulkLoadFile(&live, kModel, path));
  const auto start = std::chrono::steady_clock::now();
  RDFDB_ASSIGN_OR_RETURN(rdfdb::rdf::ModelId model_id,
                         live.GetModelId(kModel));
  for (const rdfdb::gen::ReifiedStatement& r : reified) {
    RDFDB_ASSIGN_OR_RETURN(
        rdfdb::rdf::SdoRdfTripleS base,
        live.InsertParsedTriple(model_id, r.base.subject, r.base.predicate,
                                r.base.object));
    RDFDB_RETURN_NOT_OK(live.AssertAboutTriple(kModel, r.curator_uri,
                                               kCuratedBy, base.rdf_t_id())
                            .status());
  }
  outcome->reify_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return Status::OK();
}

std::string InsertBody(const std::string& subject_uri, size_t serial,
                       size_t count, Fingerprint* expected) {
  const std::string n = std::to_string(serial);
  const std::string xsd_int(rdfdb::rdf::kXsdInt);
  const Term statements[][2] = {
      {Term::Uri(std::string(rdfdb::rdf::kRdfType)),
       Term::Uri(rdfdb::gen::kUpProtein)},
      {Term::Uri(rdfdb::gen::kUpMnemonic), Term::PlainLiteral("N" + n + "_BENCH")},
      {Term::Uri(std::string(rdfdb::rdf::kRdfsLabel)),
       Term::PlainLiteralLang("Inserted protein " + n, "en")},
      {Term::Uri(rdfdb::gen::kUpOrganism),
       Term::TypedLiteral(std::to_string(9000 + serial % 2000), xsd_int)},
      {Term::Uri(rdfdb::gen::kUpSequenceLength),
       Term::TypedLiteral(std::to_string(40 + serial % 3960), xsd_int)},
      {Term::Uri(rdfdb::gen::kUpCitation),
       Term::Uri("urn:lsid:uniprot.org:citations:" +
                 std::to_string(1000000 + serial % 20000))},
      {Term::Uri(rdfdb::gen::kUpCreated),
       Term::TypedLiteral("2006-04-03", "http://www.w3.org/2001/XMLSchema#date")},
      {Term::Uri("http://www.w3.org/2000/01/rdf-schema#comment"),
       Term::PlainLiteral("inserted statement " + n)},
  };
  constexpr size_t kShapes = sizeof(statements) / sizeof(statements[0]);
  const Term subject = Term::Uri(subject_uri);
  std::string body;
  *expected = Fingerprint{};
  for (size_t i = 0; i < count && i < kShapes; ++i) {
    body += rdfdb::rdf::ToNTriplesLine(
        NTriple{subject, statements[i][0], statements[i][1]});
    body += "\n";
    const uint64_t cells[2] = {TermHash(statements[i][0]),
                               TermHash(statements[i][1])};
    expected->Add(RowHash(cells, 2));
  }
  return body;
}

Expectations::Expectations(const rdfdb::gen::UniProtDataset& dataset) {
  // Distinct base statements, keyed by their N-Triples line.
  std::unordered_set<std::string> lines;
  std::unordered_map<std::string, uint32_t> protein_index;
  std::unordered_map<std::string, uint32_t> target_index;
  std::vector<std::set<uint32_t>> refs;
  std::vector<std::set<uint32_t>> referrers;
  std::vector<std::set<uint64_t>> mnemonics;
  const Term see_also = Term::Uri(std::string(rdfdb::rdf::kRdfsSeeAlso));
  const Term mnemonic = Term::Uri(rdfdb::gen::kUpMnemonic);
  const Term type = Term::Uri(std::string(rdfdb::rdf::kRdfType));
  const Term protein = Term::Uri(rdfdb::gen::kUpProtein);

  // Proteins are exactly the subjects typed up:Protein.
  for (const NTriple& t : dataset.triples) {
    if (t.predicate == type && t.object == protein &&
        protein_index.emplace(t.subject.lexical(),
                              static_cast<uint32_t>(proteins_.size()))
            .second) {
      proteins_.push_back(t.subject.lexical());
    }
  }
  subject_rows_.resize(proteins_.size());
  refs.resize(proteins_.size());
  mnemonics.resize(proteins_.size());
  protein_hash_.resize(proteins_.size());
  for (size_t i = 0; i < proteins_.size(); ++i) {
    protein_hash_[i] = CellHash(Uri(proteins_[i]));
  }

  for (const NTriple& t : dataset.triples) {
    if (!lines.insert(rdfdb::rdf::ToNTriplesLine(t)).second) continue;
    const uint64_t spo[3] = {TermHash(t.subject), TermHash(t.predicate),
                             TermHash(t.object)};
    base_rows_.insert(RowHash(spo, 3));
    if (!t.subject.is_uri()) continue;
    auto p = protein_index.find(t.subject.lexical());
    if (p == protein_index.end()) continue;
    subject_rows_[p->second].Add(RowHash(spo + 1, 2));
    if (t.predicate == see_also && t.object.is_uri()) {
      auto [it, fresh] = target_index.emplace(
          t.object.lexical(), static_cast<uint32_t>(target_hash_.size()));
      if (fresh) {
        target_hash_.push_back(spo[2]);
        referrers.emplace_back();
      }
      refs[p->second].insert(it->second);
      referrers[it->second].insert(p->second);
    } else if (t.predicate == mnemonic) {
      mnemonics[p->second].insert(spo[2]);
    }
  }

  std::set<std::string> reified_bases;
  std::set<std::pair<std::string, std::string>> assertions;
  for (const rdfdb::gen::ReifiedStatement& r : dataset.reified) {
    const std::string line = rdfdb::rdf::ToNTriplesLine(r.base);
    reified_bases.insert(line);
    assertions.emplace(r.curator_uri, line);
    lines.insert(line);  // the base is inserted if the corpus lacked it
  }
  distinct_triples_ = lines.size() + reified_bases.size() + assertions.size();

  for (auto& r : refs) refs_.emplace_back(r.begin(), r.end());
  for (auto& r : referrers) referrers_.emplace_back(r.begin(), r.end());
  for (auto& m : mnemonics) mnemonic_hashes_.emplace_back(m.begin(), m.end());
}

Fingerprint Expectations::SubjectRows(size_t protein) const {
  return subject_rows_[protein];
}

Fingerprint Expectations::JoinRows(size_t protein) const {
  // Columns in first-appearance order: ?x ?q ?m.
  Fingerprint fp;
  uint64_t cells[3];
  for (uint32_t x : refs_[protein]) {
    cells[0] = target_hash_[x];
    for (uint32_t q : referrers_[x]) {
      cells[1] = protein_hash_[q];
      for (uint64_t m : mnemonic_hashes_[q]) {
        cells[2] = m;
        fp.Add(RowHash(cells, 3));
      }
    }
  }
  return fp;
}

bool Expectations::ScanRowOk(const std::vector<std::string>& cells) const {
  if (cells.size() != 3) return false;
  static const std::string kType = Uri(rdfdb::rdf::kRdfType);
  static const std::string kStatement = Uri(rdfdb::rdf::kRdfStatement);
  static const std::string kCurated = Uri(kCuratedBy);
  if (cells[0].rfind(kDbUriPrefix, 0) == 0) {
    return cells[1] == kType && cells[2] == kStatement;
  }
  if (cells[2].rfind(kDbUriPrefix, 0) == 0) return cells[1] == kCurated;
  const uint64_t h[3] = {CellHash(cells[0]), CellHash(cells[1]),
                         CellHash(cells[2])};
  return base_rows_.count(RowHash(h, 3)) > 0;
}

}  // namespace rdfbench
