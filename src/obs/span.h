// Span: the unit of the unified observability layer (src/obs/).
//
// A span is one timed interval of work in one execution — an executor
// step, a store save, a restore path, a data message — tagged with the
// category, logical iteration, place, payload bytes, and free-form
// key/value annotations (restore mode, victim place, code path). Span
// times are in the owning backend's clock domain: simulated seconds on
// the Simulated backend (bit-identical across job counts and machines),
// real wall-clock seconds on the Threads backend, where spans also carry
// the emitting OS thread's tag in `tid` (see obs::TidScope).
//
// The obs module depends on nothing but the standard library; every
// layer of the system (apgas runtime, resilient store, GML matrices,
// framework executor, chaos harness) can include it without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rgml::obs {

/// What kind of work a span measures. Mirrors the phases the paper's
/// evaluation attributes time to (step / checkpoint / restore), plus the
/// runtime-level activities underneath them.
enum class Category {
  Step,              ///< one application iteration
  CheckpointSave,    ///< snapshotting state into the store
  CheckpointCommit,  ///< atomic promotion of an in-progress snapshot
  CheckpointCancel,  ///< discarding a half-taken snapshot
  Restore,           ///< rollback work (store + GML restore paths)
  Comms,             ///< data messages between places
  Kill,              ///< a place failure
  Finish,            ///< resilient-finish bookkeeping (place-0 ack waits)
  Run,               ///< anything else (whole-run umbrella, harness)
};

[[nodiscard]] const char* toString(Category category);

/// Inverse of toString: parses the exported "cat" label back into the
/// enum. Returns false (leaving `out` untouched) for unknown labels.
[[nodiscard]] bool parseCategory(const std::string& name, Category& out);

struct Span {
  Category category = Category::Run;
  std::string name;        ///< e.g. "step", "store.save", "comm"
  long iteration = -1;     ///< logical iteration; -1 when not applicable
  int place = -1;          ///< emitting place; -1 when not place-bound
  /// Process-unique tag of the emitting OS thread (obs::osThreadTag),
  /// stamped by the sink from the active TidScope. -1 on the simulated
  /// backend, where all places share one host thread and a real thread
  /// id would break cross-machine trace determinism.
  int tid = -1;
  double startTime = 0.0;  ///< simulated seconds
  double endTime = 0.0;    ///< simulated seconds (== startTime: instant)
  std::uint64_t bytes = 0; ///< payload bytes attributed to this span
  int depth = 0;           ///< nesting depth at emission (0 = top level)
  /// The executor phase active at emission ("step", "checkpoint",
  /// "restore"; empty outside any tagged phase). Set automatically by the
  /// TraceSink from its phase stack (see PhaseScope), so every nested
  /// span — store saves, comms, finish acks — is attributable to the
  /// executor phase it ran under.
  std::string phase;
  /// Extra annotations, e.g. {"mode", "shrink"}, {"victim", "3"},
  /// {"path", "repartitioned"}. Exported into the Chrome-trace `args`.
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] double duration() const { return endTime - startTime; }

  /// The value of annotation `key`; empty string when absent.
  [[nodiscard]] std::string arg(const std::string& key) const {
    for (const auto& [k, v] : args) {
      if (k == key) return v;
    }
    return {};
  }
};

/// One compact line of text for `s` — the span-to-text renderer of
/// timelines and report trace tails:
///   [0.12s..0.15s] restore restore iter=15 p0 mode=shrink victim=3
/// (times via jsonNumber; iteration, place and bytes only when set; then
/// every annotation as key=value).
[[nodiscard]] std::string spanLine(const Span& s);

}  // namespace rgml::obs
