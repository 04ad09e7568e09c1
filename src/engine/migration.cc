#include "engine/migration.h"

namespace albic::engine {

const char* MigrationModeName(MigrationMode mode) {
  switch (mode) {
    case MigrationMode::kIndirect:
      return "indirect";
    case MigrationMode::kLease:
      return "lease";
    case MigrationMode::kDirect:
      break;
  }
  return "direct";
}

double MigrationCost(const Topology& topology, KeyGroupId g,
                     const MigrationCostModel& model) {
  return model.alpha_per_byte * topology.group_state_bytes(g);
}

std::vector<double> AllMigrationCosts(const Topology& topology,
                                      const MigrationCostModel& model) {
  std::vector<double> out(static_cast<size_t>(topology.num_key_groups()));
  for (KeyGroupId g = 0; g < topology.num_key_groups(); ++g) {
    out[g] = MigrationCost(topology, g, model);
  }
  return out;
}

MigrationReport ApplyMigrations(const std::vector<Migration>& migrations,
                                const Topology& topology,
                                const MigrationCostModel& model,
                                Assignment* assignment) {
  MigrationReport report;
  for (const Migration& m : migrations) {
    if (m.from == m.to) continue;
    assignment->set_node(m.group, m.to);
    ++report.count;
    report.total_cost += MigrationCost(topology, m.group, model);
    report.total_pause_seconds +=
        model.pause_seconds_per_byte * topology.group_state_bytes(m.group);
  }
  return report;
}

}  // namespace albic::engine
