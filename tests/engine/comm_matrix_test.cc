#include "engine/comm_matrix.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace albic::engine {
namespace {

TEST(CommMatrixTest, AddAccumulates) {
  CommMatrix m(3);
  m.Add(0, 1, 2.0);
  m.Add(0, 1, 3.0);
  m.Add(0, 2, 1.0);
  EXPECT_DOUBLE_EQ(m.Rate(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.Rate(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.Rate(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.TotalOut(0), 6.0);
  EXPECT_DOUBLE_EQ(m.TotalTraffic(), 6.0);
}

TEST(CommMatrixTest, SetRowReplaces) {
  CommMatrix m(2);
  m.Add(0, 1, 9.0);
  m.SetRow(0, {{1, 1.0}});
  EXPECT_DOUBLE_EQ(m.Rate(0, 1), 1.0);
}

TEST(CommMatrixTest, ClearEmpties) {
  CommMatrix m(2);
  m.Add(0, 1, 1.0);
  m.Add(1, 0, 2.0);
  m.Clear();
  EXPECT_DOUBLE_EQ(m.TotalTraffic(), 0.0);
  EXPECT_EQ(m.num_groups(), 2);
}

TEST(CommMatrixTest, RowAccess) {
  CommMatrix m(2);
  m.Add(0, 1, 1.5);
  ASSERT_EQ(m.row(0).size(), 1u);
  EXPECT_EQ(m.row(0)[0].to, 1);
  EXPECT_TRUE(m.row(1).empty());
}

/// The rule the index replaced: Add searches the row for the pair and
/// appends it when absent, so rows keep first-Add order and a SetRow row
/// that repeats a pair adds to its first copy.
class LinearRows {
 public:
  explicit LinearRows(int num_groups) : rows_(num_groups) {}

  void Add(KeyGroupId from, KeyGroupId to, double rate) {
    for (CommMatrix::Entry& e : rows_[from]) {
      if (e.to == to) {
        e.rate += rate;
        return;
      }
    }
    rows_[from].push_back({to, rate});
  }
  void SetRow(KeyGroupId from, std::vector<CommMatrix::Entry> entries) {
    rows_[from] = std::move(entries);
  }
  void Clear() {
    for (auto& row : rows_) row.clear();
  }
  const std::vector<CommMatrix::Entry>& row(KeyGroupId from) const {
    return rows_[from];
  }

 private:
  std::vector<std::vector<CommMatrix::Entry>> rows_;
};

void ExpectSameRows(const CommMatrix& m, const LinearRows& want,
                    const std::string& when) {
  double total = 0.0;
  for (KeyGroupId from = 0; from < m.num_groups(); ++from) {
    const std::vector<CommMatrix::Entry>& got = m.row(from);
    const std::vector<CommMatrix::Entry>& row = want.row(from);
    ASSERT_EQ(got.size(), row.size()) << when << ", row " << from;
    double out = 0.0;
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(got[i].to, row[i].to) << when << ", row " << from << " #" << i;
      ASSERT_EQ(got[i].rate, row[i].rate)
          << when << ", row " << from << " #" << i;
      out += row[i].rate;
      total += row[i].rate;
      // Rate reads the first copy of a pair, as Add does.
      double first = 0.0;
      for (const CommMatrix::Entry& e : row) {
        if (e.to == row[i].to) {
          first = e.rate;
          break;
        }
      }
      ASSERT_EQ(m.Rate(from, row[i].to), first) << when;
    }
    ASSERT_EQ(m.TotalOut(from), out) << when << ", row " << from;
  }
  ASSERT_EQ(m.TotalTraffic(), total) << when;
}

TEST(CommMatrixTest, IndexedAddKeepsTheLinearSearchRows) {
  // As many groups as fig 5's job; rows from 1 to 97 destinations wide.
  constexpr int kGroups = 1201;
  CommMatrix m(kGroups);
  LinearRows want(kGroups);
  Rng rng(31);
  int clears = 0;
  int set_rows = 0;
  for (int step = 0; step < 200000; ++step) {
    const double pick = rng.NextDouble();
    const KeyGroupId from = static_cast<KeyGroupId>(rng.Index(kGroups));
    if (pick < 0.00005) {
      if (clears % 2 == 0) {
        m.Clear();
      } else {
        // As HarvestPeriod starts a period: a fresh matrix sized like the
        // last one.
        CommMatrix next(kGroups);
        next.ReserveLike(m);
        m = std::move(next);
      }
      want.Clear();
      ++clears;
    } else if (pick < 0.001) {
      // A replaced row, now and then repeating a pair.
      std::vector<CommMatrix::Entry> row;
      const size_t n = rng.Index(12);
      for (size_t i = 0; i < n; ++i) {
        const KeyGroupId to = i > 0 && rng.Bernoulli(0.2)
                                  ? row[rng.Index(i)].to
                                  : static_cast<KeyGroupId>(rng.Index(kGroups));
        row.push_back({to, rng.Uniform(0.0, 5.0)});
      }
      m.SetRow(from, row);
      want.SetRow(from, row);
      ++set_rows;
    } else {
      const size_t width = 1 + static_cast<size_t>(from) % 97;
      const KeyGroupId to = static_cast<KeyGroupId>(
          (static_cast<size_t>(from) + 13 * rng.Index(width)) % kGroups);
      const double rate = rng.Uniform(0.5, 20.0);
      m.Add(from, to, rate);
      want.Add(from, to, rate);
    }
    if (step % 20011 == 0) {
      ExpectSameRows(m, want, "step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectSameRows(m, want, "the end");
  EXPECT_GT(clears, 2);
  EXPECT_GT(set_rows, 100);
}

TEST(CommMatrixTest, ReserveLikeAfterSetRowKeepsEveryPair) {
  // Rows set directly leave the index stale; reserving for fewer pairs
  // than the rows hold must still index them all.
  CommMatrix m(40);
  LinearRows want(40);
  for (KeyGroupId from = 0; from < 40; ++from) {
    std::vector<CommMatrix::Entry> row;
    for (KeyGroupId to = 0; to < 40; ++to) row.push_back({to, 1.0});
    m.SetRow(from, row);
    want.SetRow(from, row);
  }
  CommMatrix small(40);
  small.Add(0, 1, 1.0);
  m.ReserveLike(small);
  for (KeyGroupId from = 0; from < 40; ++from) {
    m.Add(from, (from * 7) % 40, 2.0);
    want.Add(from, (from * 7) % 40, 2.0);
  }
  ExpectSameRows(m, want, "after SetRow and ReserveLike");
}

TEST(CommMatrixTest, CopiesKeepTheirOwnIndex) {
  CommMatrix m(4);
  m.Add(0, 3, 1.0);
  m.Add(0, 1, 2.0);
  CommMatrix copy = m;
  copy.Add(0, 1, 5.0);
  copy.Add(0, 2, 1.0);
  m.Add(0, 3, 4.0);
  ASSERT_EQ(copy.row(0).size(), 3u);
  EXPECT_EQ(copy.row(0)[0].to, 3);
  EXPECT_DOUBLE_EQ(copy.Rate(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(copy.Rate(0, 1), 7.0);
  ASSERT_EQ(m.row(0).size(), 2u);
  EXPECT_DOUBLE_EQ(m.Rate(0, 3), 5.0);
  EXPECT_DOUBLE_EQ(m.Rate(0, 1), 2.0);
}

}  // namespace
}  // namespace albic::engine
