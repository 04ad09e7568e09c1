#include "engine/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
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
// CheckpointStore: the record index both backends share
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(int retain_versions)
    : retain_versions_(std::max(1, retain_versions)) {}

Result<CheckpointInfo> CheckpointStore::PutRecord(KeyGroupId group,
                                                  uint64_t seq,
                                                  std::string payload,
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
  ALBIC_RETURN_NOT_OK(WritePayload(group, info, std::move(payload)));
  versions.push_back(info);
  stored_bytes_ += static_cast<int64_t>(info.bytes);
  ++puts_;
  if (is_delta) ++delta_puts_;
  // Retention counts chains: drop the oldest base together with the deltas
  // chained onto it (evicting only part of a chain would orphan the rest).
  auto bases = [&versions] {
    return std::count_if(versions.begin(), versions.end(),
                         [](const CheckpointInfo& v) { return !v.is_delta; });
  };
  while (bases() > retain_versions_) {
    do {
      DropPayload(group, versions.front());
      stored_bytes_ -= static_cast<int64_t>(versions.front().bytes);
      versions.erase(versions.begin());
    } while (!versions.empty() && versions.front().is_delta);
  }
  return info;
}

void CheckpointStore::Reindex(KeyGroupId group, const CheckpointInfo& info) {
  std::vector<CheckpointInfo>& versions = index_[group];
  if (info.is_delta &&
      (versions.empty() || versions.back().version + 1 != info.version)) {
    DropPayload(group, info);
    return;
  }
  versions.push_back(info);
  stored_bytes_ += static_cast<int64_t>(info.bytes);
}

bool CheckpointStore::Latest(KeyGroupId group, CheckpointInfo* info,
                             std::string* state) const {
  const auto it = index_.find(group);
  if (it == index_.end() || it->second.empty()) return false;
  return Get(group, it->second.back().version, info, state);
}

bool CheckpointStore::LatestChain(KeyGroupId group, CheckpointInfo* info,
                                  std::string* base,
                                  std::vector<std::string>* deltas) const {
  const auto it = index_.find(group);
  if (it == index_.end()) return false;
  const std::vector<CheckpointInfo>& versions = it->second;
  // The newest chain starts at the last base.
  const auto base_it =
      std::find_if(versions.rbegin(), versions.rend(),
                   [](const CheckpointInfo& v) { return !v.is_delta; });
  if (base_it == versions.rend()) return false;
  const auto first = base_it.base() - 1;
  if (base != nullptr && !ReadPayload(group, *first, base)) return false;
  if (deltas != nullptr) {
    deltas->clear();
    for (auto d = first + 1; d != versions.end(); ++d) {
      std::string payload;
      if (!ReadPayload(group, *d, &payload)) return false;
      deltas->push_back(std::move(payload));
    }
  }
  if (info != nullptr) *info = versions.back();
  return true;
}

uint64_t CheckpointStore::ChainDeltaBytes(KeyGroupId group) const {
  const auto it = index_.find(group);
  if (it == index_.end()) return 0;
  uint64_t bytes = 0;
  for (auto v = it->second.rbegin(); v != it->second.rend() && v->is_delta;
       ++v) {
    bytes += v->bytes;
  }
  return bytes;
}

bool CheckpointStore::Get(KeyGroupId group, uint64_t version,
                          CheckpointInfo* info, std::string* state) const {
  const auto it = index_.find(group);
  if (it == index_.end()) return false;
  for (const CheckpointInfo& v : it->second) {
    if (v.version != version) continue;
    if (state != nullptr && !ReadPayload(group, v, state)) return false;
    if (info != nullptr) *info = v;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// MemoryCheckpointStore
// ---------------------------------------------------------------------------

Status MemoryCheckpointStore::WritePayload(KeyGroupId group,
                                           const CheckpointInfo& info,
                                           std::string payload) {
  payloads_[{group, info.version}] = std::move(payload);
  return Status::OK();
}

bool MemoryCheckpointStore::ReadPayload(KeyGroupId group,
                                        const CheckpointInfo& info,
                                        std::string* payload) const {
  const auto it = payloads_.find({group, info.version});
  if (it == payloads_.end()) return false;
  *payload = it->second;
  return true;
}

void MemoryCheckpointStore::DropPayload(KeyGroupId group,
                                        const CheckpointInfo& info) {
  payloads_.erase({group, info.version});
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
      new FileCheckpointStore(dir, retain_versions));
  // Re-index snapshots already on disk (restart-recovery path): file names
  // carry (group, version); seq and size come from each file's header. Only
  // exact record names count (a copy named g1_v2.ckpt.bak is not a v2).
  std::map<std::pair<KeyGroupId, uint64_t>, CheckpointInfo> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path name = entry.path().filename();
    long long g = 0;
    unsigned long long v = 0;
    if (std::sscanf(name.c_str(), "g%lld_v%llu.ckpt", &g, &v) != 2 ||
        name != std::filesystem::path(
                    store->PathFor(static_cast<KeyGroupId>(g), v))
                    .filename()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    uint64_t magic = 0, seq = 0, size = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&seq), sizeof(seq));
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    // A torn record, shorter than its length says, is not indexed.
    const bool known = magic == kSnapshotMagic || magic == kDeltaMagic;
    if (!in || !known || size != BytesLeft(in)) continue;
    CheckpointInfo info;
    info.version = v;
    info.seq = seq;
    info.bytes = size;
    info.is_delta = magic == kDeltaMagic;
    found[{static_cast<KeyGroupId>(g), info.version}] = info;
  }
  if (ec) {
    return Status::Internal("cannot scan checkpoint dir " + dir + ": " +
                            ec.message());
  }
  for (const auto& [key, info] : found) store->Reindex(key.first, info);
  return store;
}

std::string FileCheckpointStore::PathFor(KeyGroupId group,
                                         uint64_t version) const {
  char name[64];
  std::snprintf(name, sizeof(name), "g%lld_v%" PRIu64 ".ckpt",
                static_cast<long long>(group), version);
  return dir_ + "/" + name;
}

Status FileCheckpointStore::WritePayload(KeyGroupId group,
                                         const CheckpointInfo& info,
                                         std::string payload) {
  const std::string path = PathFor(group, info.version);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint64_t magic = info.is_delta ? kDeltaMagic : kSnapshotMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&info.seq), sizeof(info.seq));
  out.write(reinterpret_cast<const char*>(&info.bytes), sizeof(info.bytes));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) return Status::Internal("cannot write checkpoint " + path);
  return Status::OK();
}

bool FileCheckpointStore::ReadPayload(KeyGroupId group,
                                      const CheckpointInfo& info,
                                      std::string* payload) const {
  std::ifstream in(PathFor(group, info.version), std::ios::binary);
  uint64_t magic = 0, seq = 0, size = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&seq), sizeof(seq));
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  const uint64_t want = info.is_delta ? kDeltaMagic : kSnapshotMagic;
  // A length that disagrees with the payload on disk is corruption; check
  // it before it sizes the buffer.
  if (!in || magic != want || size != BytesLeft(in)) return false;
  payload->resize(size);
  in.read(payload->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

void FileCheckpointStore::DropPayload(KeyGroupId group,
                                      const CheckpointInfo& info) {
  std::error_code ec;
  std::filesystem::remove(PathFor(group, info.version), ec);
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
  if (!last_error_.ok()) return;  // store failed; ingest reports it
  if (!time_initialized_) {
    // Anchor the schedule at the first observed safe point, like the
    // engine's windows, so replayed real timestamps do not make every group
    // due at once.
    anchor_us_ = engine->event_time();
    time_initialized_ = true;
    return;
  }
  const bool closes = AdvanceTick(engine);
  const bool overflow = engine->replay_log_overflowed();
  if (overflow) ++stats_.forced_rounds;
  (void)Slice(engine, overflow ? INT64_MAX : tick_, closes || overflow);
}

Result<int> CheckpointCoordinator::CheckpointNow(LocalEngine* engine) {
  AdvanceTick(engine);
  return Slice(engine, INT64_MAX, /*close_interval=*/true);
}

bool CheckpointCoordinator::AdvanceTick(LocalEngine* engine) {
  if (!time_initialized_) return false;  // tick 0 until the anchor
  // The largest t with interval * t < (now - anchor + 1) * groups: one
  // division however long the gap, saturated where NextDue still fits.
  const int groups = engine->topology().num_key_groups();
  const __int128 span =
      (static_cast<__int128>(engine->event_time()) - anchor_us_ + 1) * groups;
  tick_ = static_cast<int64_t>(
      std::min<__int128>((span - 1) / options_.interval_us, INT64_MAX / 2));
  const bool closes = tick_ / groups > intervals_closed_;
  intervals_closed_ = tick_ / groups;
  return closes;
}

Result<int> CheckpointCoordinator::Slice(LocalEngine* engine, int64_t due_by,
                                         bool close_interval) {
  const auto start = std::chrono::steady_clock::now();
  const auto slice = engine->CheckpointDirtyGroups(due_by);
  Status status = slice.status();
  if (status.ok() && close_interval) {
    status = store_->PutManifest({static_cast<uint64_t>(stats_.rounds) + 1,
                                  engine->shard_offsets()});
  }
  if (!status.ok()) {
    last_error_ = status;
    return status;
  }
  if (close_interval) ++stats_.rounds;
  stats_.snapshots += slice->groups;
  stats_.snapshot_bytes += slice->bytes;
  stats_.delta_snapshots += slice->delta_groups;
  stats_.delta_snapshot_bytes += slice->delta_bytes;
  stats_.round_wall_us +=
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count();
  return slice->groups;
}

}  // namespace albic::engine
