#include "engine/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "engine/local_engine.h"

namespace albic::engine {

namespace {

constexpr uint64_t kSnapshotMagic = 0x414c42434b505431ULL;  // "ALBCKPT1"
constexpr uint64_t kDeltaMagic = 0x414c42434b444c31ULL;     // "ALBCKDL1"
constexpr uint64_t kManifestMagic = 0x414c424d414e4631ULL;  // "ALBMANF1"

/// Bytes between \p in's read position and the end of its file: what a
/// length field read from the file must match before anything is
/// allocated for it.
uint64_t BytesLeft(std::ifstream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryCheckpointStore
// ---------------------------------------------------------------------------

MemoryCheckpointStore::MemoryCheckpointStore(int retain_versions)
    : retain_versions_(retain_versions < 1 ? 1 : retain_versions) {}

Result<CheckpointInfo> MemoryCheckpointStore::PutRecord(
    KeyGroupId group, uint64_t seq, const std::string& payload,
    bool is_delta) {
  std::vector<Snapshot>& versions = groups_[group];
  if (is_delta && versions.empty()) {
    return Status::Internal("delta checkpoint without a base to chain onto");
  }
  CheckpointInfo info;
  info.version = versions.empty() ? 1 : versions.back().info.version + 1;
  info.seq = seq;
  info.bytes = payload.size();
  info.is_delta = is_delta;
  versions.push_back(Snapshot{info, payload});
  stored_bytes_ += static_cast<int64_t>(payload.size());
  ++puts_;
  if (is_delta) ++delta_puts_;
  // Retention counts chains: drop the oldest base together with the deltas
  // chained onto it (evicting only part of a chain would orphan the rest).
  auto bases = [&versions] {
    int n = 0;
    for (const Snapshot& s : versions) n += s.info.is_delta ? 0 : 1;
    return n;
  };
  while (bases() > retain_versions_) {
    do {
      stored_bytes_ -= static_cast<int64_t>(versions.front().state.size());
      versions.erase(versions.begin());
    } while (!versions.empty() && versions.front().info.is_delta);
  }
  return info;
}

Result<CheckpointInfo> MemoryCheckpointStore::Put(KeyGroupId group,
                                                  uint64_t seq,
                                                  const std::string& state) {
  return PutRecord(group, seq, state, /*is_delta=*/false);
}

Result<CheckpointInfo> MemoryCheckpointStore::PutDelta(
    KeyGroupId group, uint64_t seq, const std::string& delta) {
  return PutRecord(group, seq, delta, /*is_delta=*/true);
}

bool MemoryCheckpointStore::Latest(KeyGroupId group, CheckpointInfo* info,
                                   std::string* state) const {
  const auto it = groups_.find(group);
  if (it == groups_.end() || it->second.empty()) return false;
  const Snapshot& snap = it->second.back();
  if (info != nullptr) *info = snap.info;
  if (state != nullptr) *state = snap.state;
  return true;
}

bool MemoryCheckpointStore::LatestChain(KeyGroupId group, CheckpointInfo* info,
                                        std::string* base,
                                        std::vector<std::string>* deltas) const {
  const auto it = groups_.find(group);
  if (it == groups_.end() || it->second.empty()) return false;
  const std::vector<Snapshot>& versions = it->second;
  size_t base_at = versions.size();
  for (size_t i = versions.size(); i-- > 0;) {
    if (!versions[i].info.is_delta) {
      base_at = i;
      break;
    }
  }
  if (base_at == versions.size()) return false;  // cannot happen: kept whole
  if (info != nullptr) *info = versions.back().info;
  if (base != nullptr) *base = versions[base_at].state;
  if (deltas != nullptr) {
    deltas->clear();
    for (size_t i = base_at + 1; i < versions.size(); ++i) {
      deltas->push_back(versions[i].state);
    }
  }
  return true;
}

uint64_t MemoryCheckpointStore::ChainDeltaBytes(KeyGroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return 0;
  uint64_t bytes = 0;
  for (size_t i = it->second.size(); i-- > 0;) {
    if (!it->second[i].info.is_delta) break;
    bytes += it->second[i].info.bytes;
  }
  return bytes;
}

bool MemoryCheckpointStore::Get(KeyGroupId group, uint64_t version,
                                CheckpointInfo* info,
                                std::string* state) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return false;
  for (const Snapshot& snap : it->second) {
    if (snap.info.version == version) {
      if (info != nullptr) *info = snap.info;
      if (state != nullptr) *state = snap.state;
      return true;
    }
  }
  return false;
}

Status MemoryCheckpointStore::PutManifest(const CheckpointManifest& manifest) {
  manifest_ = manifest;
  has_manifest_ = true;
  return Status::OK();
}

bool MemoryCheckpointStore::LatestManifest(CheckpointManifest* out) const {
  if (!has_manifest_) return false;
  if (out != nullptr) *out = manifest_;
  return true;
}

// ---------------------------------------------------------------------------
// FileCheckpointStore
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FileCheckpointStore>> FileCheckpointStore::Open(
    const std::string& dir, int retain_versions) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint dir " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<FileCheckpointStore> store(
      new FileCheckpointStore(dir, retain_versions < 1 ? 1 : retain_versions));
  // Re-index snapshots already on disk (restart-recovery path): file names
  // carry (group, version); seq and size come from each file's header.
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    long long g = 0;
    unsigned long long v = 0;
    if (std::sscanf(name.c_str(), "g%lld_v%llu.ckpt", &g, &v) != 2) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    uint64_t magic = 0, seq = 0, size = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&seq), sizeof(seq));
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in || (magic != kSnapshotMagic && magic != kDeltaMagic)) continue;
    CheckpointInfo info;
    info.version = v;
    info.seq = seq;
    info.bytes = size;
    info.is_delta = magic == kDeltaMagic;
    store->index_[static_cast<KeyGroupId>(g)].push_back(info);
    store->stored_bytes_ += static_cast<int64_t>(size);
  }
  if (ec) {
    return Status::Internal("cannot scan checkpoint dir " + dir + ": " +
                            ec.message());
  }
  for (auto& [group, versions] : store->index_) {
    std::sort(versions.begin(), versions.end(),
              [](const CheckpointInfo& a, const CheckpointInfo& b) {
                return a.version < b.version;
              });
  }
  return store;
}

std::string FileCheckpointStore::PathFor(KeyGroupId group,
                                         uint64_t version) const {
  char name[64];
  std::snprintf(name, sizeof(name), "g%lld_v%" PRIu64 ".ckpt",
                static_cast<long long>(group), version);
  return dir_ + "/" + name;
}

Result<CheckpointInfo> FileCheckpointStore::PutRecord(
    KeyGroupId group, uint64_t seq, const std::string& payload,
    bool is_delta) {
  std::vector<CheckpointInfo>& versions = index_[group];
  if (is_delta && versions.empty()) {
    return Status::Internal("delta checkpoint without a base to chain onto");
  }
  CheckpointInfo info;
  info.version = versions.empty() ? 1 : versions.back().version + 1;
  info.seq = seq;
  info.bytes = payload.size();
  info.is_delta = is_delta;
  const std::string path = PathFor(group, info.version);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const uint64_t magic = is_delta ? kDeltaMagic : kSnapshotMagic;
    const uint64_t size = payload.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&seq), sizeof(seq));
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) return Status::Internal("cannot write checkpoint " + path);
  }
  versions.push_back(info);
  stored_bytes_ += static_cast<int64_t>(payload.size());
  ++puts_;
  if (is_delta) ++delta_puts_;
  // Retention counts chains: the oldest base leaves together with the
  // deltas chained onto it.
  auto bases = [&versions] {
    int n = 0;
    for (const CheckpointInfo& v : versions) n += v.is_delta ? 0 : 1;
    return n;
  };
  while (bases() > retain_versions_) {
    do {
      std::error_code ec;
      std::filesystem::remove(PathFor(group, versions.front().version), ec);
      stored_bytes_ -= static_cast<int64_t>(versions.front().bytes);
      versions.erase(versions.begin());
    } while (!versions.empty() && versions.front().is_delta);
  }
  return info;
}

Result<CheckpointInfo> FileCheckpointStore::Put(KeyGroupId group, uint64_t seq,
                                                const std::string& state) {
  return PutRecord(group, seq, state, /*is_delta=*/false);
}

Result<CheckpointInfo> FileCheckpointStore::PutDelta(KeyGroupId group,
                                                     uint64_t seq,
                                                     const std::string& delta) {
  return PutRecord(group, seq, delta, /*is_delta=*/true);
}

bool FileCheckpointStore::Latest(KeyGroupId group, CheckpointInfo* info,
                                 std::string* state) const {
  const auto it = index_.find(group);
  if (it == index_.end() || it->second.empty()) return false;
  return Get(group, it->second.back().version, info, state);
}

bool FileCheckpointStore::LatestChain(KeyGroupId group, CheckpointInfo* info,
                                      std::string* base,
                                      std::vector<std::string>* deltas) const {
  const auto it = index_.find(group);
  if (it == index_.end() || it->second.empty()) return false;
  const std::vector<CheckpointInfo>& versions = it->second;
  size_t base_at = versions.size();
  for (size_t i = versions.size(); i-- > 0;) {
    if (!versions[i].is_delta) {
      base_at = i;
      break;
    }
  }
  if (base_at == versions.size()) return false;  // cannot happen: kept whole
  if (info != nullptr) *info = versions.back();
  if (base != nullptr &&
      !Get(group, versions[base_at].version, nullptr, base)) {
    return false;
  }
  if (deltas != nullptr) {
    deltas->clear();
    for (size_t i = base_at + 1; i < versions.size(); ++i) {
      std::string payload;
      if (!Get(group, versions[i].version, nullptr, &payload)) return false;
      deltas->push_back(std::move(payload));
    }
  }
  return true;
}

uint64_t FileCheckpointStore::ChainDeltaBytes(KeyGroupId group) const {
  const auto it = index_.find(group);
  if (it == index_.end()) return 0;
  uint64_t bytes = 0;
  for (size_t i = it->second.size(); i-- > 0;) {
    if (!it->second[i].is_delta) break;
    bytes += it->second[i].bytes;
  }
  return bytes;
}

bool FileCheckpointStore::Get(KeyGroupId group, uint64_t version,
                              CheckpointInfo* info, std::string* state) const {
  const auto it = index_.find(group);
  if (it == index_.end()) return false;
  const CheckpointInfo* found = nullptr;
  for (const CheckpointInfo& v : it->second) {
    if (v.version == version) {
      found = &v;
      break;
    }
  }
  if (found == nullptr) return false;
  if (info != nullptr) *info = *found;
  if (state != nullptr) {
    std::ifstream in(PathFor(group, version), std::ios::binary);
    uint64_t magic = 0, seq = 0, size = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&seq), sizeof(seq));
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    const uint64_t want = found->is_delta ? kDeltaMagic : kSnapshotMagic;
    // A length that disagrees with the payload on disk is corruption; check
    // it before it sizes the buffer.
    if (!in || magic != want || size != BytesLeft(in)) return false;
    state->resize(size);
    in.read(state->data(), static_cast<std::streamsize>(size));
    if (!in) return false;
  }
  return true;
}

Status FileCheckpointStore::PutManifest(const CheckpointManifest& manifest) {
  const std::string path = dir_ + "/MANIFEST";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint64_t n = manifest.shard_offsets.size();
  out.write(reinterpret_cast<const char*>(&kManifestMagic),
            sizeof(kManifestMagic));
  out.write(reinterpret_cast<const char*>(&manifest.epoch),
            sizeof(manifest.epoch));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(manifest.shard_offsets.data()),
            static_cast<std::streamsize>(n * sizeof(int64_t)));
  if (!out) return Status::Internal("cannot write manifest " + path);
  return Status::OK();
}

bool FileCheckpointStore::LatestManifest(CheckpointManifest* out) const {
  std::ifstream in(dir_ + "/MANIFEST", std::ios::binary);
  uint64_t magic = 0, epoch = 0, n = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&epoch), sizeof(epoch));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in || magic != kManifestMagic) return false;
  // n must describe exactly the bytes after the header; comparing it with
  // their count / 8 keeps n * 8 from overflowing.
  const uint64_t left = BytesLeft(in);
  if (left % sizeof(int64_t) != 0 || n != left / sizeof(int64_t)) return false;
  CheckpointManifest manifest;
  manifest.epoch = epoch;
  manifest.shard_offsets.resize(n);
  in.read(reinterpret_cast<char*>(manifest.shard_offsets.data()),
          static_cast<std::streamsize>(n * sizeof(int64_t)));
  if (!in) return false;
  if (out != nullptr) *out = std::move(manifest);
  return true;
}

// ---------------------------------------------------------------------------
// CheckpointCoordinator
// ---------------------------------------------------------------------------

CheckpointCoordinator::CheckpointCoordinator(
    CheckpointStore* store, CheckpointCoordinatorOptions options)
    : store_(store), options_(options) {
  if (options_.interval_us < 1) options_.interval_us = 1;
  if (options_.max_log_entries < 1) options_.max_log_entries = 1;
}

void CheckpointCoordinator::OnSafePoint(LocalEngine* engine) {
  if (!last_error_.ok()) return;  // store failed; checkpointing degraded
  const int64_t now = engine->event_time();
  if (!time_initialized_) {
    // Anchor the interval origin at the first observed safe point, like the
    // engine's windows, so replayed real timestamps do not trigger a storm
    // of catch-up rounds.
    last_round_us_ = now;
    time_initialized_ = true;
    return;
  }
  const bool overflow = engine->replay_log_overflowed();
  if (!overflow && now - last_round_us_ < options_.interval_us) return;
  if (overflow) ++stats_.forced_rounds;
  while (now - last_round_us_ >= options_.interval_us) {
    last_round_us_ += options_.interval_us;
  }
  (void)CheckpointNow(engine);
}

Result<int> CheckpointCoordinator::CheckpointNow(LocalEngine* engine) {
  const auto start = std::chrono::steady_clock::now();
  Result<CheckpointRoundResult> round = engine->CheckpointDirtyGroups();
  if (!round.ok()) {
    last_error_ = round.status();
    return round.status();
  }
  ++stats_.rounds;
  stats_.snapshots += round->groups;
  stats_.snapshot_bytes += round->bytes;
  stats_.delta_snapshots += round->delta_groups;
  stats_.delta_snapshot_bytes += round->delta_bytes;
  stats_.round_wall_us +=
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count();
  return round->groups;
}

}  // namespace albic::engine
