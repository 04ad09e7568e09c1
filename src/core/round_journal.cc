#include "core/round_journal.h"

#include <cinttypes>
#include <cstdio>

namespace albic::core {

namespace {

/// JSON-safe double: %.6g never emits characters needing escapes, and
/// NaN/inf (which JSON cannot carry) degrade to 0.
void AppendDouble(std::string* out, double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

}  // namespace

Status RoundJournal::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    return Status::Internal("cannot open journal: " + path);
  }
  records_ = 0;
  write_errors_ = 0;
  return Status::OK();
}

void RoundJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status RoundJournal::Append(const ControllerRound& round) {
  if (file_ == nullptr) return Status::OK();
  const std::string line = ToJson(round);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    ++write_errors_;
    return Status::Internal("journal write failed");
  }
  ++records_;
  return Status::OK();
}

std::string RoundJournal::ToJson(const ControllerRound& round) {
  std::string out;
  out.reserve(512 + round.migration_decisions.size() * 160);
  out += "{\"round\":";
  AppendInt(&out, round.period);
  out += ",\"measured_costs\":";
  out += round.measured_costs ? "true" : "false";
  out += ",\"plan_ms\":";
  AppendDouble(&out, round.plan_ms);
  out += ",\"plan_capped\":";
  out += round.plan_capped ? "true" : "false";
  out += ",\"tuples\":{\"processed\":";
  AppendInt(&out, round.tuples_processed);
  out += ",\"ingested\":";
  AppendInt(&out, round.tuples_ingested);
  out += ",\"buffered\":";
  AppendInt(&out, round.tuples_buffered);
  out += ",\"replayed\":";
  AppendInt(&out, round.tuples_replayed);
  out += "},\"migrations\":{\"planned\":";
  AppendInt(&out, round.migrations_planned);
  out += ",\"applied\":";
  AppendInt(&out, round.migrations_applied);
  out += ",\"direct\":";
  AppendInt(&out, round.migrations_direct);
  out += ",\"indirect\":";
  AppendInt(&out, round.migrations_indirect);
  out += ",\"lease\":";
  AppendInt(&out, round.migrations_lease);
  out += ",\"pause_us\":";
  AppendDouble(&out, round.migration_pause_us);
  out += "},\"decisions\":[";
  for (size_t i = 0; i < round.migration_decisions.size(); ++i) {
    const MigrationDecision& d = round.migration_decisions[i];
    if (i > 0) out += ',';
    out += "{\"group\":";
    AppendInt(&out, d.group);
    out += ",\"from\":";
    AppendInt(&out, d.from);
    out += ",\"to\":";
    AppendInt(&out, d.to);
    out += ",\"mode\":\"";
    out += engine::MigrationModeName(d.mode);
    out += "\",\"reason\":\"";
    out += d.reason;  // fixed vocabulary, never needs escaping
    out += "\",\"predicted_pause_us\":";
    AppendDouble(&out, d.predicted_pause_us);
    out += ",\"actual_pause_us\":";
    AppendDouble(&out, d.actual_pause_us);
    out += ",\"est\":{\"direct_us\":";
    AppendDouble(&out, d.est_direct_us);
    out += ",\"indirect_us\":";
    AppendDouble(&out, d.est_indirect_us);
    out += ",\"lease_us\":";
    AppendDouble(&out, d.est_lease_us);
    out += "}}";
  }
  out += "],\"checkpoint\":{\"taken\":";
  AppendInt(&out, round.checkpoints_taken);
  out += ",\"bytes\":";
  AppendInt(&out, round.checkpoint_bytes);
  out += "},\"recovery\":{\"nodes_failed\":";
  AppendInt(&out, round.nodes_failed);
  out += ",\"groups_recovered\":";
  AppendInt(&out, round.groups_recovered);
  out += ",\"pause_us\":";
  AppendDouble(&out, round.recovery_pause_us);
  out += ",\"wall_us\":";
  AppendDouble(&out, round.recovery_wall_us);
  out += "},\"cluster\":{\"active\":";
  AppendInt(&out, round.active_nodes);
  out += ",\"marked\":";
  AppendInt(&out, round.marked_nodes);
  out += ",\"added\":";
  AppendInt(&out, round.nodes_added);
  out += ",\"terminated\":";
  AppendInt(&out, round.nodes_terminated);
  out += "},\"load\":{\"mean\":";
  AppendDouble(&out, round.mean_load);
  out += ",\"distance\":";
  AppendDouble(&out, round.load_distance);
  out += "},\"latency\":{\"count\":";
  AppendInt(&out, round.latency.e2e_count);
  out += ",\"p50_us\":";
  AppendInt(&out, round.latency.e2e_p50_us);
  out += ",\"p99_us\":";
  AppendInt(&out, round.latency.e2e_p99_us);
  out += ",\"max_us\":";
  AppendInt(&out, round.latency.e2e_max_us);
  out += ",\"queue_p99_us\":";
  AppendInt(&out, round.latency.queue_p99_us);
  // Causal attribution (wave-phase profiler). dominant_phase is "off"
  // when the engine runs without profiling, so the key is always present
  // and the analyzer can validate it unconditionally. Phase names and the
  // dominant phase come from WavePhaseName's fixed vocabulary — no
  // escaping needed, like the decisions' reason strings.
  out += "},\"attribution\":{\"dominant_phase\":\"";
  out += round.dominant_phase;
  out += "\",\"dominant_share\":";
  AppendDouble(&out, round.dominant_phase_share);
  out += ",\"wall_ns\":";
  AppendInt(&out, round.phase_wall_ns);
  out += ",\"phase_ns\":{";
  bool first_phase = true;
  for (int p = 0; p < albic::kNumWavePhases; ++p) {
    if (round.phase_ns[p] == 0) continue;
    if (!first_phase) out += ',';
    first_phase = false;
    out += '"';
    out += albic::WavePhaseName(static_cast<albic::WavePhase>(p));
    out += "\":";
    AppendInt(&out, round.phase_ns[p]);
  }
  out += "},\"top_costs\":[";
  for (size_t i = 0; i < round.top_costs.size(); ++i) {
    const engine::AttributedCost& c = round.top_costs[i];
    if (i > 0) out += ',';
    out += "{\"group\":";
    AppendInt(&out, c.group);
    out += ",\"op\":";
    AppendInt(&out, c.op);
    out += ",\"service_ns\":";
    AppendInt(&out, c.service_ns);
    out += ",\"share\":";
    AppendDouble(&out, c.share);
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace albic::core
