// Id-native /query rendering against the Term path it replaced.
//
// The oracle is the pre-id-native render, kept here in a few lines:
// resolve the id to a Term, write its N-Triples form by string
// concatenation with the old literal escaper, and JSON-escape that
// string. StoreView::AppendNTriples (front-coded dictionary decode on a
// StoreVersion, the Term default on the live RdfStore), the server's
// JSON cell writer and whole /query bodies must match it byte for byte,
// over every TermKind and the awkward bytes: quotes, backslashes,
// CR/LF/TAB, a 0x01 control byte and multi-byte UTF-8. Also here: the
// per-response allocation bound of /query, and a TSan target that
// renders a pinned version while the writer publishes new terms.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "query/match.h"
#include "rdf/snapshot_store.h"
#include "rdf/term.h"
#include "rdf/vocab.h"
#include "server/http.h"
#include "server/server.h"

namespace rdfdb {
namespace {

using rdf::Term;
using rdf::TermKind;
using rdf::ValueId;

// ---- The oracle: the render path before AppendNTriples ------------------

std::string OracleEscapeLiteral(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string OracleNTriples(const Term& t) {
  const std::string body = "\"" + OracleEscapeLiteral(t.lexical()) + "\"";
  switch (t.kind()) {
    case TermKind::kUri:
      return "<" + t.lexical() + ">";
    case TermKind::kBlankNode:
      return "_:" + t.lexical();
    case TermKind::kPlainLiteral:
    case TermKind::kPlainLongLiteral:
      return t.language().empty() ? body : body + "@" + t.language();
    case TermKind::kPlainLiteralLang:
      return body + "@" + t.language();
    case TermKind::kTypedLiteral:
    case TermKind::kTypedLongLiteral:
      return body + "^^<" + t.datatype() + ">";
  }
  return "";
}

std::string OracleJson(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

/// The old /query body: Term adapter rows, rendered cell by cell.
std::string OracleBody(const query::MatchResult& table,
                       const obs::QueryTrace& trace) {
  std::string body = "{\"columns\": [";
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (c > 0) body += ", ";
    body += OracleJson(table.columns()[c]);
  }
  body += "], \"rows\": [";
  for (size_t r = 0; r < table.row_count(); ++r) {
    if (r > 0) body += ", ";
    body += "[";
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) body += ", ";
      body += OracleJson(OracleNTriples(table.at(r, c)));
    }
    body += "]";
  }
  body += "], \"row_count\": " + std::to_string(table.row_count());
  body += ", \"stats\": {\"patterns\": [";
  size_t scanned = 0;
  for (size_t i = 0; i < trace.patterns.size(); ++i) {
    const obs::PatternTrace& p = trace.patterns[i];
    if (i > 0) body += ", ";
    body += "{\"index\": " + std::to_string(p.pattern_index) +
            ", \"scanned\": " + std::to_string(p.rows_scanned) +
            ", \"emitted\": " + std::to_string(p.rows_emitted) + "}";
    scanned += p.rows_scanned;
  }
  body += "], \"rows_scanned\": " + std::to_string(scanned) +
          ", \"rows_emitted\": " + std::to_string(trace.rows_emitted) +
          ", \"value_lookups\": " + std::to_string(trace.value_lookups) +
          ", \"exec_threads\": " + std::to_string(trace.exec_threads) +
          ", \"exec_chunks\": " + std::to_string(trace.exec_chunks) + "}}";
  return body;
}

// ---- Fixture -----------------------------------------------------------

/// Every awkward byte class the writers escape (or must not).
const std::string kNasty =
    "q\"b\\s\nl\rr\tt\x01"
    "c caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80";

server::HttpRequest QueryRequest(const std::string& query_string) {
  server::HttpRequest request;
  request.method = "GET";
  request.path = "/query";
  request.query = query_string;
  request.target = "/query?" + query_string;
  return request;
}

class RenderDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("m", "m_app", "triple").ok());
    ASSERT_TRUE(store_.CreateRdfModel("m2", "m2_app", "triple").ok());
    const std::string xsd_int(rdf::kXsdInt);
    const std::string long_text = std::string(4500, 'x') + kNasty;
    const Term p = Term::Uri("http://ex.org/p");
    std::vector<std::pair<Term, Term>> rows = {
        {Term::Uri("http://ex.org/uri"), Term::Uri("http://ex.org/o")},
        {Term::Uri("http://ex.org/quote\"back\\slash"),
         Term::PlainLiteral("plain")},
        {Term::BlankNode("b1"), Term::PlainLiteral(kNasty)},
        {Term::BlankNode("b2"), Term::BlankNode("b1")},
        {Term::Uri("http://ex.org/lang"), Term::PlainLiteralLang(kNasty, "fr")},
        {Term::Uri("http://ex.org/typed"), Term::TypedLiteral("25", xsd_int)},
        {Term::Uri("http://ex.org/typed2"),
         Term::TypedLiteral(kNasty, "http://ex.org/dt\"x")},
        {Term::Uri("http://ex.org/long"), Term::PlainLiteral(long_text)},
        {Term::Uri("http://ex.org/longtyped"),
         Term::TypedLiteral(long_text, xsd_int)},
        {Term::Uri("http://ex.org/longlang"),
         Term::PlainLiteralLang(long_text, "en-GB")},
        {Term::Uri("http://ex.org/empty"), Term::PlainLiteral("")},
    };
    // Enough shared-prefix URIs to fill several front-coded blocks.
    for (int i = 0; i < 40; ++i) {
      rows.emplace_back(
          Term::Uri("http://ex.org/item/" + std::to_string(1000 + i)),
          Term::PlainLiteral("v" + std::to_string(i % 7)));
    }
    std::vector<rdf::LinkId> links;
    ASSERT_TRUE(store_
                    .Apply([&](rdf::RdfStore& live) -> Status {
                      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId m,
                                             live.GetModelId("m"));
                      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId m2,
                                             live.GetModelId("m2"));
                      for (const auto& [s, o] : rows) {
                        RDFDB_ASSIGN_OR_RETURN(
                            rdf::SdoRdfTripleS t,
                            live.InsertParsedTriple(m, s, p, o));
                        links.push_back(t.rdf_t_id());
                      }
                      // m2 repeats two of m's triples: a two-model
                      // query then has duplicate rows for DISTINCT.
                      for (size_t i = 0; i < 2; ++i) {
                        RDFDB_RETURN_NOT_OK(
                            live.InsertParsedTriple(m2, rows[i].first, p,
                                                    rows[i].second)
                                .status());
                      }
                      return Status::OK();
                    })
                    .ok());
    // Reified statements: DBUri subjects plus rdf:type rdf:Statement.
    ASSERT_TRUE(store_.ReifyTriple("m", links[0]).ok());
    ASSERT_TRUE(store_.ReifyTriple("m", links[5]).ok());
  }

  /// Every VALUE_ID the two models' triples use.
  std::set<ValueId> AllIds(const rdf::StoreView& view) {
    std::set<ValueId> ids;
    for (const char* model : {"m", "m2"}) {
      auto table = query::SdoRdfMatchIds(view, "(?s ?p ?o)", {model}, {}, "");
      EXPECT_TRUE(table.ok());
      if (table.ok()) ids.insert(table->ids.begin(), table->ids.end());
    }
    return ids;
  }

  /// StoreView::AppendNTriples and the JSON cell writer against the
  /// oracle for every id, rendering after a prefix that must survive.
  void CheckEveryId(const rdf::StoreView& view, std::set<TermKind>* kinds) {
    const std::set<ValueId> ids = AllIds(view);
    ASSERT_GT(ids.size(), 50u);
    for (ValueId id : ids) {
      auto term = view.TermForValueId(id);
      ASSERT_TRUE(term.ok()) << id;
      kinds->insert(term->kind());
      const std::string want = OracleNTriples(*term);
      std::string nt = "prefix|";
      ASSERT_TRUE(view.AppendNTriples(id, &nt).ok());
      EXPECT_EQ(nt, "prefix|" + want) << "VALUE_ID " << id;
      EXPECT_EQ(term->ToNTriples(), want) << "VALUE_ID " << id;
      std::string json = "[";
      ASSERT_TRUE(server::AppendJsonNTriples(view, id, &json).ok());
      EXPECT_EQ(json, "[" + OracleJson(want)) << "VALUE_ID " << id;
    }
    std::string out = "kept";
    EXPECT_TRUE(view.AppendNTriples(-42, &out).IsNotFound());
    EXPECT_TRUE(server::AppendJsonNTriples(view, -42, &out).IsNotFound());
  }

  rdf::SnapshotRdfStore store_;
};

TEST_F(RenderDiffTest, StoreVersionMatchesOracleForEveryId) {
  std::set<TermKind> kinds;
  auto pin = store_.Snapshot();
  CheckEveryId(pin.view(), &kinds);
  EXPECT_EQ(kinds.size(), 7u) << "the model must cover every TermKind";
}

TEST_F(RenderDiffTest, LiveStoreMatchesOracleForEveryId) {
  std::set<TermKind> kinds;
  ASSERT_TRUE(store_
                  .Apply([&](rdf::RdfStore& live) {
                    CheckEveryId(live, &kinds);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(kinds.size(), 7u);
}

TEST_F(RenderDiffTest, QueryBodiesMatchOracle) {
  server::RdfServer server(&store_, {});
  const std::string all = "q=" + server::PercentEncode("(?s ?p ?o)");
  struct Case {
    std::string query_string;
    std::vector<std::string> models;
    query::MatchOptions options;
  };
  query::MatchOptions distinct;
  distinct.distinct = true;
  query::MatchOptions limit;
  limit.limit = 5;
  const std::vector<Case> cases = {
      {all + "&model=m", {"m"}, {}},
      {all + "&model=m&distinct=1", {"m"}, distinct},
      {all + "&model=m&limit=5", {"m"}, limit},
      {all + "&model=m&model=m2", {"m", "m2"}, {}},
      {all + "&model=m&model=m2&distinct=1", {"m", "m2"}, distinct},
  };
  for (const Case& c : cases) {
    server::HttpResponse resp = server.Handle(QueryRequest(c.query_string),
                                              nullptr);
    ASSERT_EQ(resp.status, 200) << c.query_string << ": " << resp.body;
    auto pin = store_.Snapshot();
    obs::QueryTrace trace;
    query::MatchOptions options = c.options;
    options.trace = &trace;
    auto table =
        query::SdoRdfMatch(pin.view(), "(?s ?p ?o)", c.models, {}, "", options);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(resp.body, OracleBody(*table, trace)) << c.query_string;
    if (c.options.distinct && c.models.size() == 2) {
      EXPECT_EQ(trace.distinct_drops, 2u);
    }
  }
}

// ---- Allocations per response -------------------------------------------

TEST(RenderAllocTest, QueryAllocationsDoNotGrowWithRows) {
  rdf::SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "m_app", "triple").ok());
  ASSERT_TRUE(store
                  .Apply([&](rdf::RdfStore& live) -> Status {
                    RDFDB_ASSIGN_OR_RETURN(rdf::ModelId m,
                                           live.GetModelId("m"));
                    const Term p = Term::Uri("http://ex.org/p");
                    for (int i = 0; i < 3000; ++i) {
                      RDFDB_RETURN_NOT_OK(
                          live.InsertParsedTriple(
                                  m,
                                  Term::Uri("http://ex.org/s/" +
                                            std::to_string(i)),
                                  p,
                                  Term::PlainLiteral("value \"" +
                                                     std::to_string(i % 97) +
                                                     "\""))
                              .status());
                    }
                    return Status::OK();
                  })
                  .ok());
  server::RdfServer server(&store, {});
  auto allocations = [&](size_t limit) {
    const server::HttpRequest request = QueryRequest(
        "q=" + server::PercentEncode("(?s ?p ?o)") +
        "&model=m&limit=" + std::to_string(limit));
    const uint64_t before = obs::ThreadAllocationCount();
    server::HttpResponse resp = server.Handle(request, nullptr);
    const uint64_t after = obs::ThreadAllocationCount();
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"row_count\": " + std::to_string(limit)),
              std::string::npos);
    return after - before;
  };
  allocations(2000);  // warm up any first-use state
  const uint64_t small = allocations(200);
  const uint64_t large = allocations(2000);
  // Ten times the rows (30 k more cells) may cost a few geometric
  // buffer growths, never anything per row or per cell.
  EXPECT_LE(large, small + 8) << "200 rows: " << small
                              << " allocations, 2000 rows: " << large;
}

// ---- Concurrency (tools/run_tsan.sh) -------------------------------------

TEST(RenderConcurrencyTest, PinnedVersionRendersWhileWriterPublishes) {
  rdf::SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "m_app", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "<http://ex.org/s0>",
                                 "<http://ex.org/p>", "\"seed\"")
                  .ok());
  constexpr int kWrites = 300;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; i <= kWrites; ++i) {
      // Every insert brings new terms, so each publish runs
      // TermDict::Ingest and builds a new front-coded pack.
      const std::string n = std::to_string(i);
      EXPECT_TRUE(store.InsertTriple("m", "<http://ex.org/s" + n + ">",
                                     "<http://ex.org/p>",
                                     "\"text " + n + "\\n\"@en")
                      .ok());
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<size_t> rendered{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string out;
      while (!done.load()) {
        auto pin = store.Snapshot();
        auto table =
            query::SdoRdfMatchIds(pin.view(), "(?s ?p ?o)", {"m"}, {}, "");
        ASSERT_TRUE(table.ok());
        for (ValueId id : table->ids) {
          out.clear();
          ASSERT_TRUE(pin.view().AppendNTriples(id, &out).ok());
          auto term = pin.view().TermForValueId(id);
          ASSERT_TRUE(term.ok());
          ASSERT_EQ(out, term->ToNTriples());
          rendered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(rendered.load(), 0u);
  auto pin = store.Snapshot();
  auto table = query::SdoRdfMatchIds(pin.view(), "(?s ?p ?o)", {"m"}, {}, "");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows, static_cast<size_t>(kWrites + 1));
}

}  // namespace
}  // namespace rdfdb
