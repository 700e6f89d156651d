#include "storage/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

namespace rdfdb::storage {

// Found by argument-dependent lookup, so it must live in IndexKind's own
// namespace; keeps "4-byte object <..>" out of the test names.
void PrintTo(IndexKind kind, std::ostream* os) {
  *os << (kind == IndexKind::kHash ? "Hash" : "Ordered");
}

namespace {

ValueKey K(int64_t v) { return ValueKey{Value::Int64(v)}; }

class IndexKindTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  std::unique_ptr<Index> Make(bool unique) {
    return MakeIndex(GetParam(), "idx", KeyExtractor::Columns({0}), unique);
  }
};

TEST_P(IndexKindTest, InsertAndFind) {
  auto index = Make(false);
  ASSERT_TRUE(index->Insert(K(1), 10).ok());
  ASSERT_TRUE(index->Insert(K(1), 11).ok());
  ASSERT_TRUE(index->Insert(K(2), 20).ok());
  std::vector<RowId> hits = index->Find(K(1));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<RowId>{10, 11}));
  EXPECT_EQ(index->Find(K(2)), std::vector<RowId>{20});
  EXPECT_TRUE(index->Find(K(3)).empty());
  EXPECT_EQ(index->entry_count(), 3u);
}

TEST_P(IndexKindTest, UniqueViolation) {
  auto index = Make(true);
  ASSERT_TRUE(index->Insert(K(1), 10).ok());
  EXPECT_TRUE(index->Insert(K(1), 11).IsAlreadyExists());
  EXPECT_EQ(index->entry_count(), 1u);
}

TEST_P(IndexKindTest, Erase) {
  auto index = Make(false);
  ASSERT_TRUE(index->Insert(K(1), 10).ok());
  ASSERT_TRUE(index->Insert(K(1), 11).ok());
  index->Erase(K(1), 10);
  EXPECT_EQ(index->Find(K(1)), std::vector<RowId>{11});
  EXPECT_EQ(index->entry_count(), 1u);
  index->Erase(K(1), 11);
  EXPECT_TRUE(index->Find(K(1)).empty());
  // Erasing a missing entry is a no-op.
  index->Erase(K(1), 99);
  index->Erase(K(42), 1);
  EXPECT_EQ(index->entry_count(), 0u);
}

TEST_P(IndexKindTest, InsertRowUsesExtractor) {
  auto index = Make(false);
  Row row{Value::Int64(7), Value::String("x")};
  ASSERT_TRUE(index->InsertRow(row, 3).ok());
  EXPECT_EQ(index->Find(K(7)), std::vector<RowId>{3});
  index->EraseRow(row, 3);
  EXPECT_TRUE(index->Find(K(7)).empty());
}

TEST_P(IndexKindTest, ApproxBytesGrows) {
  auto index = Make(false);
  size_t empty = index->ApproxBytes();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(index->Insert(K(i), i).ok());
  }
  EXPECT_GT(index->ApproxBytes(), empty);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IndexKindTest,
                         ::testing::Values(IndexKind::kHash,
                                           IndexKind::kOrdered),
                         [](const auto& info) {
                           return info.param == IndexKind::kHash ? "Hash"
                                                                 : "Ordered";
                         });

TEST(OrderedIndexTest, RangeScan) {
  OrderedIndex index("rng", KeyExtractor::Columns({0}), false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Insert(K(i), 100 + i).ok());
  }
  std::vector<RowId> hits = index.FindRange(K(3), K(6));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<RowId>{103, 104, 105, 106}));
  EXPECT_TRUE(index.FindRange(K(20), K(30)).empty());
}

TEST(OrderedIndexTest, RangeScanInclusiveBounds) {
  OrderedIndex index("rng", KeyExtractor::Columns({0}), false);
  ASSERT_TRUE(index.Insert(K(5), 1).ok());
  EXPECT_EQ(index.FindRange(K(5), K(5)), std::vector<RowId>{1});
}

TEST(KeyExtractorTest, ColumnsExtractsInOrder) {
  KeyExtractor e = KeyExtractor::Columns({2, 0});
  Row row{Value::Int64(1), Value::String("b"), Value::String("c")};
  ValueKey key = e.Extract(row);
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].as_string(), "c");
  EXPECT_EQ(key[1].as_int64(), 1);
}

TEST(KeyExtractorTest, MissingColumnYieldsNull) {
  KeyExtractor e = KeyExtractor::Columns({5});
  Row row{Value::Int64(1)};
  ValueKey key = e.Extract(row);
  ASSERT_EQ(key.size(), 1u);
  EXPECT_TRUE(key[0].is_null());
}

TEST(KeyExtractorTest, FunctionBasedIndexKey) {
  // Models Oracle's function-based index: key derived from a computation.
  KeyExtractor e = KeyExtractor::Function(
      [](const Row& row) {
        return ValueKey{Value::Int64(row[0].as_int64() * 2)};
      },
      "double(col0)");
  Row row{Value::Int64(21)};
  EXPECT_EQ(e.Extract(row)[0].as_int64(), 42);
  EXPECT_EQ(e.description(), "double(col0)");
}

TEST(KeyExtractorTest, ColumnsDescription) {
  EXPECT_EQ(KeyExtractor::Columns({1, 3}).description(), "columns(1,3)");
}

}  // namespace
}  // namespace rdfdb::storage
