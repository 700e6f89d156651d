// RDF term model: URIs, blank nodes, and (typed / language-tagged /
// long) literals — the value kinds the paper's rdf_value$ table stores
// with VALUE_TYPE codes UR, BN, PL, PL@, TL, PLL, TLL.

#ifndef RDFDB_RDF_TERM_H_
#define RDFDB_RDF_TERM_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace rdfdb::rdf {

/// Threshold above which a literal becomes a long literal stored in the
/// LONG_VALUE CLOB column ("long-literals are text values that exceed
/// 4000 characters").
inline constexpr size_t kLongLiteralThreshold = 4000;

/// Term kinds, one per VALUE_TYPE code in rdf_value$.
enum class TermKind {
  kUri,               ///< "UR"
  kBlankNode,         ///< "BN"
  kPlainLiteral,      ///< "PL"
  kPlainLiteralLang,  ///< "PL@"
  kTypedLiteral,      ///< "TL"
  kPlainLongLiteral,  ///< "PLL"
  kTypedLongLiteral,  ///< "TLL"
};

/// Backslash-escape `*out` from `start` to its end in place, as an
/// N-Triples literal body needs: \\, \", \n, \r, \t.
void EscapeNTriplesLiteral(std::string* out, size_t start);

/// The N-Triples writer: <uri>, _:label, "text", "text"@lang,
/// "text"^^<dt>. The lexical form comes from `append_lexical(out)`,
/// which appends it to `out` unescaped, so a dictionary can decode it
/// straight into the output. A plain (long) literal carries its
/// language tag when it has one.
template <typename AppendLexical>
void AppendNTriplesWith(TermKind kind, AppendLexical&& append_lexical,
                        std::string_view language, std::string_view datatype,
                        std::string* out) {
  if (kind == TermKind::kUri) {
    out->push_back('<');
    append_lexical(out);
    out->push_back('>');
    return;
  }
  if (kind == TermKind::kBlankNode) {
    out->append("_:");
    append_lexical(out);
    return;
  }
  out->push_back('"');
  const size_t start = out->size();
  append_lexical(out);
  EscapeNTriplesLiteral(out, start);
  out->push_back('"');
  if (kind == TermKind::kTypedLiteral || kind == TermKind::kTypedLongLiteral) {
    out->append("^^<");
    out->append(datatype);
    out->push_back('>');
  } else if (kind == TermKind::kPlainLiteralLang || !language.empty()) {
    out->push_back('@');
    out->append(language);
  }
}

/// AppendNTriplesWith for a lexical form already in memory.
inline void AppendNTriples(TermKind kind, std::string_view lexical,
                           std::string_view language,
                           std::string_view datatype, std::string* out) {
  AppendNTriplesWith(
      kind, [lexical](std::string* o) { o->append(lexical); }, language,
      datatype, out);
}

/// One RDF term. Immutable value type.
class Term {
 public:
  Term() = default;

  /// URI reference, e.g. "http://www.us.gov#files".
  static Term Uri(std::string uri);

  /// Blank node with label (no "_:" prefix), e.g. "anyname001".
  static Term BlankNode(std::string label);

  /// Plain literal; becomes a long literal automatically past the
  /// 4000-char threshold.
  static Term PlainLiteral(std::string text);

  /// Plain literal with a language tag ("chat"@fr).
  static Term PlainLiteralLang(std::string text, std::string language);

  /// Typed literal ("25"^^xsd:int); becomes a typed long literal past the
  /// threshold.
  static Term TypedLiteral(std::string text, std::string datatype_uri);

  TermKind kind() const { return kind_; }

  bool is_uri() const { return kind_ == TermKind::kUri; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }
  bool is_literal() const { return !is_uri() && !is_blank(); }
  bool is_long_literal() const {
    return kind_ == TermKind::kPlainLongLiteral ||
           kind_ == TermKind::kTypedLongLiteral;
  }
  bool is_typed_literal() const {
    return kind_ == TermKind::kTypedLiteral ||
           kind_ == TermKind::kTypedLongLiteral;
  }

  /// URI text, blank label, or literal text.
  const std::string& lexical() const { return lexical_; }

  /// Language tag (empty unless kPlainLiteralLang).
  const std::string& language() const { return language_; }

  /// Datatype URI (empty unless typed).
  const std::string& datatype() const { return datatype_; }

  /// VALUE_TYPE code as stored in rdf_value$: UR, BN, PL, PL@, TL, PLL,
  /// TLL.
  const char* TypeCode() const;

  /// N-Triples serialization: <uri>, _:label, "text"@lang, "text"^^<dt>.
  std::string ToNTriples() const;

  /// Human-readable form used by GET_SUBJECT()/GET_OBJECT() result
  /// strings: URI and blank nodes render bare, literals render their text.
  std::string ToDisplayString() const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Hash consistent with operator==.
  uint64_t Hash() const;

 private:
  TermKind kind_ = TermKind::kUri;
  std::string lexical_;
  std::string language_;
  std::string datatype_;
};

/// Parse an API-level term string as accepted by the paper's
/// SDO_RDF_TRIPLE_S constructors:
///   * "_:label"           -> blank node
///   * '"text"'            -> plain literal (quoted)
///   * '"text"@lang'       -> language-tagged literal
///   * '"text"^^<dturi>'   -> typed literal
///   * '<uri>' or bare URI -> URI (anything with a scheme-ish prefix)
///   * anything else       -> plain literal (the paper's example inserts
///                            the object 'bombing' unquoted)
Result<Term> ParseApiTerm(const std::string& text);

/// Like ParseApiTerm but restricted to subject position (URI or blank
/// node only).
Result<Term> ParseApiSubject(const std::string& text);

/// Like ParseApiTerm but restricted to predicate position (URI only).
Result<Term> ParseApiPredicate(const std::string& text);

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_TERM_H_
