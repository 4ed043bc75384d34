#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/casper_engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// The free layer counters at one instant: the storage totals over every
/// chunk and the maintenance service's lifetime counts.
struct Counters {
  casper::ChunkStatsSnapshot storage;
  casper::MaintenanceStats maintenance;
};

/// What one timed phase produced. Every read result lands in `results`
/// (preallocated; checked against the reference after the phase).
struct PhaseOutput {
  double wall_s = 0;
  double cpu_s = 0;                  ///< process user + system CPU
  std::vector<uint64_t> results;     ///< per op
  std::vector<int64_t> request_ns;   ///< per client request
  std::vector<int64_t> class_ns[3];  ///< per OpClass (single-op requests)
  /// Batch mode: rows deleted and updates applied per RunMixed batch.
  std::vector<std::pair<size_t, size_t>> batch_writes;
  Counters before;
  Counters after;
  /// Traced phases only: the spans, and per timed request whether it read
  /// from disk.
  std::unique_ptr<SpanRecorder> spans;
  std::vector<uint8_t> touched_disk;
};

/// Drives the timed stream through one engine: one closed-loop client,
/// maintenance/tier cycles at fixed op counts, FlushWal at each phase end.
/// The untraced run calls the CasperEngine facade; the traced run makes the
/// same calls the facade makes, one span around each.
PhaseOutput RunPhase(casper::CasperEngine& e, const WorkloadSpec& spec,
                     const Inputs& in, bool traced);

/// Replays the stream on the reference model and counts requests whose
/// recorded answer differs (batch mode: each read, plus each batch whose
/// delete or update total differs). `final_rows` receives the model's row
/// count at the end.
size_t CountMismatches(const WorkloadSpec& spec, const Inputs& in,
                       const PhaseOutput& out, size_t* final_rows);

/// The determinism guard's record of one run: the same seed must give the
/// same layout, the same decision counts and the same answers.
struct Guard {
  uint64_t fingerprint = 0;
  uint64_t repartitions = 0;
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t grows = 0;
  uint64_t rows = 0;
  uint64_t result_checksum = 0;

  std::string ToString() const;
};

Guard MakeGuard(const casper::CasperEngine& e, const PhaseOutput& out);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
