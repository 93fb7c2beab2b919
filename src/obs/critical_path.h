// Critical-path reconstruction from trace events (DESIGN.md §12).
//
// The executor, the FIFOs and the device runners leave a complete record
// of a pipeline run in the TraceRecorder:
//
//   * "runtime"/"graph.run"  — one span per executed graph, args carry the
//     graph id ("gid") — the wall-clock window everything else nests in;
//   * "exec"/<task label>    — coalesced dispatch spans per task, args
//     carry gid, node index, leading queue wait, and (when the task parked
//     before this run) the park duration and reason (pop/push/rpc);
//   * "task"/"drain:<id>"    — device batch drains, args carry gid, node
//     and the executing device's cost label;
//   * "net"/"rpc:<id>"       — remote request round-trips (PR 5);
//   * "fifo"/"edge:<i>"      — per-edge instants emitted at graph
//     finalization with cumulative producer/consumer blocked time.
//
// reconstruct_runs() parses those events back into one GraphRun per gid:
// a per-task timeline of park → queue → run phases plus device drains,
// and per-edge FIFO statistics. This is the input to the attribution walk
// (attribution.h), which explains where the wall-clock time of the run
// went. Events the engine does not recognize are ignored, and runs with
// no usable timeline yield an empty task list rather than an error — the
// engine is a reader of traces, never a gate on producing them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace lm::obs {

/// Why a task parked between two dispatch runs.
enum class ParkReason : uint8_t { kNone, kPop, kPush, kRpc };

/// One coalesced executor dispatch: the task parked during [park0,enq)
/// (reason != kNone), waited in the ready queue during [enq,start) and ran
/// during [start,end) on trace row `tid`. Times are recorder µs.
struct DispatchRun {
  double park0 = 0;
  double enq = 0;
  double start = 0;
  double end = 0;
  ParkReason reason = ParkReason::kNone;
  uint64_t steps = 0;
  uint32_t tid = 0;
};

/// One device batch drain inside a task's running time.
struct DrainSpan {
  double t0 = 0;
  double t1 = 0;
  std::string device;  // cost label: "cpu", "gpu", "fpga", "dev@host:port"
};

/// The reconstructed execution timeline of one pipeline task.
struct TaskTimeline {
  std::string label;  // "source", "filter:<id>", "device:<label>", "sink"
  int node = -1;      // pipeline position (edges connect node i to i+1)
  std::vector<DispatchRun> runs;   // sorted by start
  std::vector<DrainSpan> drains;   // sorted by t0
  uint64_t parks_pop = 0, parks_push = 0, parks_rpc = 0;
  bool is_device() const { return label.rfind("device:", 0) == 0; }
};

/// Finalization-time statistics for the FIFO edge between node `edge`
/// and node `edge`+1.
struct EdgeStat {
  int edge = -1;
  double producer_blocked_us = 0;
  double consumer_blocked_us = 0;
  uint64_t high_water = 0;
  uint64_t capacity = 0;
};

/// Everything known about one executed graph.
struct GraphRun {
  uint64_t gid = 0;
  double t0_us = 0;  // graph.run window
  double t1_us = 0;
  std::vector<TaskTimeline> tasks;  // indexed by node
  std::vector<EdgeStat> edges;      // sorted by edge
  /// Remote round-trip spans overlapping this run (no gid on the wire;
  /// matched by time containment — a documented blind spot for
  /// concurrent multi-graph remote runs).
  std::vector<std::pair<double, double>> rpcs;
  double wall_us() const { return t1_us - t0_us; }
};

/// Reads a numeric value out of a pre-rendered JSON args body
/// ("\"gid\":3,\"node\":1"). Returns false when the key is absent.
bool args_number(const std::string& args, const char* key, double* out);
/// Same for string values; handles the escaping json_escape produces.
bool args_string(const std::string& args, const char* key, std::string* out);

/// Rebuilds one GraphRun per "graph.run" span that carries a gid.
/// Returned in execution order (ascending gid).
std::vector<GraphRun> reconstruct_runs(const std::vector<TraceEvent>& events);

}  // namespace lm::obs
