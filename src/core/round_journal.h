#pragma once

/// \file
/// \brief Controller decision journal: appends one JSONL record per
/// adaptation round — the snapshot inputs the controller saw, every
/// migration's chosen mode with the per-mode predicted pauses and the
/// reason for the choice, the predicted pause beside the engine's modeled
/// one (kEnginePauseUsPerByte × the bytes it rebuilt; neither is timed)
/// and the per-node overload backlog. The journal is the replayable audit
/// trail of the measure -> decide -> act cycle: scripts/
/// analyze_journal.py turns it into prediction-error and mode-share
/// reports. Attach via ControllerLoopOptions::journal; appends never fail
/// a round — write errors are counted (write_errors) instead.

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"
#include "core/controller_loop.h"

namespace albic::core {

/// \brief JSONL sink for ControllerRound records (one line per round).
///
/// Not thread-safe: rounds run on the driving thread and so do appends.
/// The file is line-buffered per append (fflush), so a crash loses at most
/// the record being written — the journal stays parseable line by line.
class RoundJournal {
 public:
  RoundJournal() = default;
  ~RoundJournal() { Close(); }

  RoundJournal(const RoundJournal&) = delete;
  RoundJournal& operator=(const RoundJournal&) = delete;

  /// \brief Creates/truncates \p path and starts journaling into it.
  Status Open(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  /// \brief Appends one round as a single JSON line. Returns an error on
  /// I/O failure (also counted in write_errors()); no-op when closed.
  Status Append(const ControllerRound& round);

  void Close();

  int64_t records() const { return records_; }
  int64_t write_errors() const { return write_errors_; }

  /// \brief The record serializer (exposed for tests and for callers that
  /// want the JSON without a file): one line, no trailing newline.
  static std::string ToJson(const ControllerRound& round);

 private:
  FILE* file_ = nullptr;
  int64_t records_ = 0;
  int64_t write_errors_ = 0;
};

}  // namespace albic::core
