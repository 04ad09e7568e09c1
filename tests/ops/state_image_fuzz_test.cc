// Hostile state images for every operator: a state image or delta record
// arrives from a checkpoint store or another node, so its reader must turn
// any bytes into a Status — never a crash, an exception or a read past the
// buffer. For each op, group 0 is populated (a window fire included) and
// its image checked:
//  (a) deserialize then serialize reproduces the bytes (every op but the
//      join, whose two small maps serialize in iteration order);
//  (b) every strict prefix of the image is rejected;
//  (c) a bit flip at each byte, and seeded random strings, return a Status;
//  (d) the same holds for the delta records of the delta-capable ops,
//      applied to an instance restored from the base.
// The ASan/UBSan build runs this suite, which turns (c) and (d) into
// memory- and arithmetic-safety checks of every reader.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "engine/operator.h"
#include "engine/replay_log.h"
#include "ops/aggregate.h"
#include "ops/extract.h"
#include "ops/geohash.h"
#include "ops/join.h"
#include "ops/rainscore.h"
#include "ops/reorder.h"
#include "ops/store.h"
#include "ops/topk.h"

namespace albic::ops {
namespace {

class Capture : public engine::Emitter {
 public:
  void Emit(const engine::Tuple& t) override { tuples.push_back(t); }
  std::vector<engine::Tuple> tuples;
};

struct OpCase {
  const char* name;
  bool canonical;  ///< (a) applies: the round trip reproduces the bytes.
};

void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<engine::StreamOperator> MakeOp(const std::string& name) {
  if (name == "sum") {
    return std::make_unique<SumByKeyOperator>(1, GroupField::kKey);
  }
  if (name == "store") return std::make_unique<StoreSinkOperator>(1);
  if (name == "topk") return std::make_unique<WindowedTopKOperator>(1, 5);
  if (name == "join") return std::make_unique<RouteRainJoinOperator>(1);
  if (name == "rainscore") return std::make_unique<RainScoreOperator>(1);
  if (name == "reorder") {
    return std::make_unique<ReorderBufferOperator>(1, /*bound_us=*/5000);
  }
  if (name == "geohash") return std::make_unique<GeoHashOperator>(1, 256);
  return std::make_unique<DelayExtractOperator>(1);
}

/// Feeds group 0 tuples [first, last) of one stream every op accepts: 97
/// keys, a third of the tuples on the join's rain side, timestamps a
/// little out of order (so the reorder buffer holds some back). Tuple 200
/// is preceded by a window fire, so TopK's last window and the store's
/// flush counter are in the image too. When \p log is set, every tuple and
/// fire is also logged there, as the engine logs what it delivers.
void Populate(engine::StreamOperator* op, int first, int last,
              engine::ReplayLog* log = nullptr) {
  Capture out;
  for (int i = first; i < last; ++i) {
    if (i == 200) {
      op->OnWindow(0, &out);
      if (log != nullptr) log->AppendWindowFire();
    }
    engine::Tuple t;
    t.key = static_cast<uint64_t>(i % 97 + 1);
    t.aux = i % 3 == 0 ? RouteRainJoinOperator::kRainMark
                       : static_cast<uint64_t>(i % 31 + 1);
    t.num = static_cast<double>(i * 7 % 100) + 0.5;
    t.ts = 1000 * i - (i % 5) * 300;
    op->Process(t, 0, &out);
    if (log != nullptr) log->AppendChunk({t});
  }
}

/// Runs checks (b) and (c) against \p feed, which hands bytes to a reader
/// and returns its Status; \p valid is an image the reader accepts.
void ExpectHostileBytesReturnStatus(
    const std::string& valid,
    const std::function<Status(const std::string&)>& feed) {
  ASSERT_TRUE(feed(valid).ok());
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(feed(valid.substr(0, len)).ok()) << "prefix of " << len;
  }
  for (size_t i = 0; i < valid.size(); ++i) {
    std::string bytes = valid;
    bytes[i] = static_cast<char>(bytes[i] ^ (1 << (i % 8)));
    EXPECT_NO_THROW(feed(bytes)) << "bit flip at byte " << i;
  }
  std::mt19937_64 rng(0x5EED1E55ull);
  std::uniform_int_distribution<size_t> len_dist(0, 600);
  for (int n = 0; n < 3000; ++n) {
    std::string bytes(len_dist(rng), '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    if (n % 2 == 1 && bytes.size() >= 8) {
      // A small leading count gets past the row-count guard into the rows.
      const uint64_t count = rng() % 64;
      std::memcpy(bytes.data(), &count, sizeof(count));
    }
    EXPECT_NO_THROW(feed(bytes)) << "random string " << n;
  }
}

class StateImageFuzzTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(StateImageFuzzTest, RoundTripReproducesTheImage) {
  const std::unique_ptr<engine::StreamOperator> live = MakeOp(GetParam().name);
  Populate(live.get(), 0, 400);
  const std::string image = live->SerializeGroupState(0);
  const std::unique_ptr<engine::StreamOperator> copy = MakeOp(GetParam().name);
  ASSERT_TRUE(copy->DeserializeGroupState(0, image).ok());
  const std::string again = copy->SerializeGroupState(0);
  if (GetParam().canonical) {
    EXPECT_EQ(again, image);
  } else {
    EXPECT_EQ(again.size(), image.size());
  }
}

TEST_P(StateImageFuzzTest, HostileImagesReturnStatus) {
  const std::unique_ptr<engine::StreamOperator> live = MakeOp(GetParam().name);
  Populate(live.get(), 0, 400);
  const std::unique_ptr<engine::StreamOperator> victim =
      MakeOp(GetParam().name);
  ExpectHostileBytesReturnStatus(
      live->SerializeGroupState(0), [&](const std::string& bytes) {
        const Status s = victim->DeserializeGroupState(0, bytes);
        // Whatever a reader accepted must serialize again.
        if (s.ok()) victim->SerializeGroupState(0);
        return s;
      });
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, StateImageFuzzTest,
    ::testing::Values(OpCase{"sum", true}, OpCase{"store", true},
                      OpCase{"topk", true}, OpCase{"join", false},
                      OpCase{"rainscore", true}, OpCase{"reorder", true},
                      OpCase{"geohash", true}, OpCase{"extract", true}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return std::string(info.param.name);
    });

class DeltaImageFuzzTest : public StateImageFuzzTest {};

TEST_P(DeltaImageFuzzTest, HostileDeltasReturnStatus) {
  const std::unique_ptr<engine::StreamOperator> live = MakeOp(GetParam().name);
  Populate(live.get(), 0, 400);
  const std::string base = live->SerializeGroupState(0);
  engine::ReplayLog changes;  // the events since the base
  Populate(live.get(), 400, 460, &changes);
  std::string delta;
  ASSERT_TRUE(live->SerializeGroupDelta(0, changes, &delta));

  const std::unique_ptr<engine::StreamOperator> victim =
      MakeOp(GetParam().name);
  ASSERT_TRUE(victim->DeserializeGroupState(0, base).ok());
  ASSERT_TRUE(victim->ApplyGroupDelta(0, delta).ok());
  EXPECT_EQ(victim->SerializeGroupState(0), live->SerializeGroupState(0));
  ExpectHostileBytesReturnStatus(delta, [&](const std::string& bytes) {
    EXPECT_TRUE(victim->DeserializeGroupState(0, base).ok());
    const Status s = victim->ApplyGroupDelta(0, bytes);
    if (s.ok()) victim->SerializeGroupState(0);
    return s;
  });
}

INSTANTIATE_TEST_SUITE_P(
    DeltaOps, DeltaImageFuzzTest,
    ::testing::Values(OpCase{"sum", true}, OpCase{"store", true},
                      OpCase{"topk", true}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace albic::ops
