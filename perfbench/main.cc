/// \file main.cc
/// \brief The repository benchmark (see README.md).
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--work-dir <dir>]
///
/// Repeats untraced repetitions of the workload for `--seconds` (at least
/// three, each followed by set-up-only repetitions that add samples to the
/// set-up median), then one traced repetition, then the
/// integrity checks. Prints every metric by name and unit, and as its last
/// line one JSON object: the end-to-end metrics with --trace 0, the
/// per-layer metrics with --trace 1. Exits non-zero on any integrity
/// violation.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layer_probe.h"
#include "spans.h"
#include "workloads.h"

namespace fedadmm::perfbench {
namespace {

constexpr int kMinRepetitions = 3;
constexpr int kMaxRepetitions = 64;
/// Records needed so p90 has at least ten samples beyond it.
constexpr size_t kMinRecordSamples = 110;
/// Set-up is short next to a repetition, so after each repetition up to
/// this many set-up-only repetitions add samples to the setup_s median,
/// within a tenth of the repetition's wall time.
constexpr int kMaxExtraSetups = 4;
constexpr double kExtraSetupShare = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Linear-interpolated percentile of `v` (sorted copy).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Updates the server aggregated in `r`: sync records count the cohort
/// minus its drops; event-mode records count their admitted buffer.
int64_t Aggregated(const RoundRecord& r, bool sync) {
  return sync ? r.num_selected - r.num_dropped : r.num_selected;
}

/// A record that aggregated updates but produced a non-finite loss: the
/// algorithm diverged (failed_frac). Records that aggregated nothing (all
/// dropped) are NaN by design and count as drops instead.
bool NonFinite(const RoundRecord& r, bool sync) {
  return Aggregated(r, sync) > 0 &&
         (!std::isfinite(r.train_loss) || !std::isfinite(r.test_loss));
}

/// One printed metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // e.g. the sample count of a percentile
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }

  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-30s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string CountNote(size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// Sum of every obs counter whose name starts with `prefix` (per-shard
/// instances carry a {shard=s} suffix).
int64_t CounterSum(const obs::MetricsSnapshot& snap, const std::string& prefix) {
  int64_t sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(prefix, 0) == 0) sum += value;
  }
  return sum;
}

/// Adds the per-layer metrics of the traced repetition.
void AddLayerMetrics(const Workload& w, const RepResult& traced,
                     double untraced_run_s, uint64_t seed, MetricList* out) {
  const bool sync = w.kind != WorkloadKind::kFleetAsync;
  const SpanRecorder& rec = SpanRecorder::Global();
  const auto totals = rec.Totals();
  const auto t = [&](SpanName n) -> const SpanTotals& {
    return totals[static_cast<size_t>(n)];
  };

  if (w.kind == WorkloadKind::kPaperMlp) {
    for (const auto& [name, value] :
         RunLayerProbe(PaperMlpModel(), /*local_batch=*/5,
                       /*eval_batch=*/256, /*calls=*/2000, seed)) {
      const bool us = name.size() > 3 && name.substr(name.size() - 3) == "_us";
      const bool rate = name.find("gflops") != std::string::npos;
      out->Add(name, value, us ? "us" : (rate ? "GFLOP/s" : "B"));
    }
  } else {
    // No nn model on the mean-field workloads: the layer is not crossed.
    for (const char* name :
         {"nn.l1_linear.fwd_us", "nn.l1_linear.bwd_us", "nn.l2_relu.fwd_us",
          "nn.l2_relu.bwd_us", "nn.l3_linear.fwd_us", "nn.l3_linear.bwd_us",
          "nn.model.fwd_bwd_us", "nn.model.eval_fwd_us"}) {
      out->Add(name, 0.0, "us");
    }
    out->Add("nn.l1_linear.fwd_gflops", 0.0, "GFLOP/s");
    out->Add("nn.l1_linear.bwd_gflops", 0.0, "GFLOP/s");
    out->Add("nn.l1_linear.bytes_moved", 0.0, "B");
  }

  out->Add("problem.batch_grad.ms", t(SpanName::kBatchGrad).total_ms, "ms");
  out->Add("problem.batch_grad.calls", t(SpanName::kBatchGrad).calls, "count");
  out->Add("problem.batch_grad.samples", t(SpanName::kBatchGrad).items,
           "count");
  out->Add("problem.full_grad.ms", t(SpanName::kFullGrad).total_ms, "ms");
  out->Add("problem.full_grad.calls", t(SpanName::kFullGrad).calls, "count");
  out->Add("problem.eval.ms", t(SpanName::kEval).total_ms, "ms");
  out->Add("problem.eval.calls", t(SpanName::kEval).calls, "count");

  const SpanTotals& client = t(SpanName::kClientUpdate);
  out->Add("algo.client_update.ms", client.total_ms, "ms");
  out->Add("algo.client_update.calls", client.calls, "count");
  out->Add("solver.self_ms", client.self_ms, "ms");
  out->Add("algo.server_update.ms", t(SpanName::kServerUpdate).total_ms, "ms");
  out->Add("algo.server_update.calls", t(SpanName::kServerUpdate).calls,
           "count");
  out->Add("algo.aggregate_one.ms", t(SpanName::kAggregateOne).total_ms, "ms");
  out->Add("algo.aggregate_one.calls", t(SpanName::kAggregateOne).calls,
           "count");

  // Client phase of a dispatch round: first client start to last client
  // end, over the client updates of that round.
  std::map<int, std::pair<int64_t, int64_t>> phase;
  for (const Span& s : rec.SpansNamed(SpanName::kClientUpdate)) {
    auto [it, fresh] = phase.try_emplace(s.round, s.start_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  double client_phase_ms = 0.0;
  for (const auto& [round, span] : phase) {
    client_phase_ms += (span.second - span.first) * 1e-6;
  }
  const double wall_ms = traced.run_s * 1e3;
  // Serve clients run on the load generator while the engine waits inside
  // CollectWave, so their phase is already in the engine's own spans.
  const double attributed =
      rec.EngineTopLevelMs() +
      (w.kind == WorkloadKind::kServeIngest ? 0.0 : client_phase_ms);
  const double unattributed = std::max(0.0, wall_ms - attributed);
  out->Add("engine.client_phase_ms", client_phase_ms, "ms");
  out->Add("engine.executor_busy_frac",
           Ratio(client.total_ms, w.engine_threads * client_phase_ms), "1");
  out->Add("engine.unattributed_ms", unattributed, "ms");
  out->Add("engine.unattributed_frac", Ratio(unattributed, wall_ms), "1");

  const SpanTotals& select = t(SpanName::kSelect);
  out->Add("select.ms", select.total_ms, "ms");
  out->Add("select.calls", select.calls, "count");
  out->Add("select.us_per_call", Ratio(select.total_ms * 1e3, select.calls),
           "us");
  out->Add("select.clients_drawn", select.items, "count");
  out->Add("select.useful_ratio", Ratio(client.calls, select.items), "1");

  out->Add("codec.encode.ms", t(SpanName::kEncode).total_ms, "ms");
  out->Add("codec.encode.calls", t(SpanName::kEncode).calls, "count");
  out->Add("codec.decode.ms", t(SpanName::kDecode).total_ms, "ms");
  out->Add("codec.decode.calls", t(SpanName::kDecode).calls, "count");
  out->Add("codec.try_decode.ms", t(SpanName::kTryDecode).total_ms, "ms");
  out->Add("codec.try_decode.calls", t(SpanName::kTryDecode).calls, "count");

  const int64_t hits = CounterSum(traced.obs, "state/pool/hits_count");
  const int64_t misses = CounterSum(traced.obs, "state/pool/misses_count");
  out->Add("state.bytes_resident",
           traced.history.empty()
               ? 0.0
               : traced.history.records().back().state_bytes_resident,
           "B");
  out->Add("state.pool.hit_ratio", Ratio(hits, hits + misses), "1");
  out->Add("state.pool.misses", misses, "count");
  out->Add("state.pool.evictions",
           CounterSum(traced.obs, "state/pool/evictions_count"), "count");
  out->Add("state.pool.write_backs",
           CounterSum(traced.obs, "state/pool/write_backs_count"), "count");
  out->Add("state.pool.prefetch_late",
           CounterSum(traced.obs, "state/pool/prefetch_late_count"), "count");

  int64_t attempts = 0;
  int64_t dropped = 0;
  int64_t partial = 0;
  for (const RoundRecord& r : traced.history.records()) {
    attempts += sync ? r.num_selected : r.num_selected + r.num_dropped;
    dropped += r.num_dropped;
    partial += r.num_admitted_partial;
  }
  out->Add("sys.dropped_frac", Ratio(dropped, attempts), "1");
  out->Add("sys.partial_frac", Ratio(partial, attempts), "1");
  out->Add("sys.sim_s_per_round",
           traced.history.empty()
               ? 0.0
               : Ratio(traced.history.records().back().sim_seconds,
                       traced.history.size()),
           "s");

  const UploadStats& up = traced.uploads;
  const int64_t resolved = up.accepted + up.partial + up.rejected + up.errors;
  out->Add("serve.send.ms", t(SpanName::kSend).total_ms, "ms");
  out->Add("serve.send.calls", t(SpanName::kSend).calls, "count");
  out->Add("serve.collect_wave.ms", t(SpanName::kCollectWave).total_ms, "ms");
  out->Add("serve.throttled", up.throttled, "count");
  out->Add("serve.retry_ratio", Ratio(up.update_sends, resolved), "1");
  const obs::HistogramStats ingest =
      traced.obs.AggregateHistograms("serve/ingest_seconds");
  const bool served = w.kind == WorkloadKind::kServeIngest;
  out->Add("serve.ingest_us_p50", served ? ingest.Percentile(50) * 1e6 : 0.0,
           "us");
  out->Add("serve.ingest_us_p99", served ? ingest.Percentile(99) * 1e6 : 0.0,
           "us");

  out->Add("trace.overhead_frac", Ratio(traced.run_s, untraced_run_s) - 1.0,
           "1");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n",
                 WorkloadNames().c_str());
    return 2;
  }
  Result<Workload> found = FindWorkload(args.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *found;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench: workload %s, seed %" PRIu64 ", %.0f s, trace %d\n",
              w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("nproc %u; thread plan (closed loop, one process):\n", nproc);
  for (const std::string& line : w.thread_plan) {
    std::printf("  - %s\n", line.c_str());
  }
  if (nproc < 4) {
    std::printf("  note: fewer than 4 cores; the plan oversubscribes them\n");
  }

  const bool sync = w.kind != WorkloadKind::kFleetAsync;
  std::vector<std::string> violations;

  // ---- Untraced repetitions: every end-to-end number comes from these.
  std::vector<RepResult> reps;
  std::vector<double> setup_s;  // full and set-up-only repetitions
  double peak_rss_mb = 0.0;
  double measured_s = 0.0;
  size_t ok_records = 0;
  while (static_cast<int>(reps.size()) < kMaxRepetitions &&
         (static_cast<int>(reps.size()) < kMinRepetitions ||
          measured_s < args.seconds || ok_records < kMinRecordSamples)) {
    Result<RepResult> rep =
        RunRepetition(w, args.seed, /*traced=*/false, /*setup_only=*/false,
                      args.work_dir);
    if (!rep.ok()) {
      std::fprintf(stderr, "repetition failed: %s\n",
                   rep.status().ToString().c_str());
      return 1;
    }
    measured_s += rep->setup_s + rep->run_s;
    setup_s.push_back(rep->setup_s);
    for (const RoundRecord& r : rep->history.records()) {
      ok_records += !NonFinite(r, sync);
    }
    reps.push_back(std::move(rep).ValueOrDie());
    // The first repetition's peak: later ones only add allocator
    // fragmentation from rebuilding the workload, which varies run to run.
    if (reps.size() == 1) peak_rss_mb = PeakRssMiB();
    const double extra_budget_s =
        kExtraSetupShare * (reps.back().setup_s + reps.back().run_s);
    double extra_s = 0.0;
    for (int i = 0; i < kMaxExtraSetups &&
                    extra_s + Median(setup_s) <= extra_budget_s;
         ++i) {
      const auto start = std::chrono::steady_clock::now();
      Result<RepResult> setup =
          RunRepetition(w, args.seed, /*traced=*/false, /*setup_only=*/true,
                        args.work_dir);
      if (!setup.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     setup.status().ToString().c_str());
        return 1;
      }
      setup_s.push_back(setup->setup_s);
      extra_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    }
    measured_s += extra_s;
  }

  // ---- Integrity: repetitions of one seed are bitwise identical (so
  // rounds_to_target and final_acc agree too).
  const RepResult& first = reps.front();
  for (size_t i = 1; i < reps.size(); ++i) {
    if (!SameBits(reps[i].theta, first.theta) ||
        !SameHistory(reps[i].history, first.history)) {
      violations.push_back("repetition " + std::to_string(i) +
                           " diverged from repetition 0 (same seed)");
      break;
    }
  }
  for (const RepResult& rep : reps) {
    if (!rep.loadgen.ok()) {
      violations.push_back("load generator: " + rep.loadgen.ToString());
      break;
    }
  }

  // ---- Traced repetition: per-layer numbers, and θ must not move.
  Result<RepResult> traced_or =
      RunRepetition(w, args.seed, /*traced=*/true, /*setup_only=*/false,
                    args.work_dir);
  if (!traced_or.ok()) {
    std::fprintf(stderr, "traced repetition failed: %s\n",
                 traced_or.status().ToString().c_str());
    return 1;
  }
  const RepResult traced = std::move(traced_or).ValueOrDie();
  if (!SameBits(traced.theta, first.theta) ||
      !SameHistory(traced.history, first.history)) {
    violations.push_back("traced theta/History differ from untraced");
  }
  const std::string spans_path =
      args.work_dir + "/spans-" + w.name + ".bin";
  if (Status s = SpanRecorder::Global().Write(spans_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (w.kind == WorkloadKind::kServeIngest) {
    if (Status s = CheckServedMatchesInProcess(args.seed); !s.ok()) {
      violations.push_back(s.ToString());
    }
  }

  // ---- Outcome accounting over the untraced repetitions. An operation of
  // the engine workloads is one record; it failed when it is not bitwise
  // equal to the same record of an independent run of the same seed
  // (repetition 0 for the later ones, the traced run for repetition 0).
  // A diverged record (non-finite loss) is the algorithm's correct output
  // and is reported as failed_frac instead.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t nonfinite = 0;
  int64_t records_total = 0;
  int first_failed_round = -1;
  int64_t updates_ok = 0;
  int64_t upload_bytes_ok = 0;
  std::vector<double> record_ms;
  std::vector<double> run_s;
  std::vector<double> tta_s;
  std::vector<double> ack_ms;
  int64_t uploads_resolved = 0;  // terminal ACK or ERROR frame
  int64_t upload_errors = 0;
  int64_t loadgen_failures = 0;  // protocol/decode error or poll timeout
  for (size_t k = 0; k < reps.size(); ++k) {
    const RepResult& rep = reps[k];
    const History& ref = k == 0 ? traced.history : first.history;
    run_s.push_back(rep.run_s);
    if (rep.tta_s >= 0) tta_s.push_back(rep.tta_s);
    const auto& records = rep.history.records();
    const auto& ref_records = ref.records();
    failed += std::abs(static_cast<int64_t>(records.size()) -
                       static_cast<int64_t>(ref_records.size()));
    for (size_t i = 0; i < records.size(); ++i) {
      const RoundRecord& r = records[i];
      if (i < ref_records.size() && !SameRecord(r, ref_records[i])) ++failed;
      if (NonFinite(r, sync)) {
        ++nonfinite;
        if (first_failed_round < 0) first_failed_round = r.round;
        continue;
      }
      record_ms.push_back(rep.record_ms[i]);
      updates_ok += Aggregated(r, sync);
      upload_bytes_ok += r.upload_bytes;
    }
    records_total += static_cast<int64_t>(records.size());
    ack_ms.insert(ack_ms.end(), rep.uploads.ack_ms.begin(),
                  rep.uploads.ack_ms.end());
    uploads_resolved += rep.uploads.accepted + rep.uploads.partial +
                        rep.uploads.rejected + rep.uploads.errors;
    upload_errors += rep.uploads.errors;
    loadgen_failures += rep.loadgen.ok() ? 0 : 1;
  }
  attempted = records_total;
  if (w.kind == WorkloadKind::kServeIngest) {
    // Serve operations are uploads: failed ones ended in an ERROR frame, a
    // protocol or decode error, or a poll timeout.
    attempted = uploads_resolved + loadgen_failures;
    failed = upload_errors + loadgen_failures;
  }

  // Samples trained in non-failed rounds: exact, from the traced run.
  std::map<int, bool> failed_round;
  for (const RoundRecord& r : first.history.records()) {
    failed_round[r.round] = NonFinite(r, sync);
  }
  int64_t samples_ok = 0;
  for (SpanName name : {SpanName::kBatchGrad, SpanName::kFullGrad}) {
    for (const Span& s : SpanRecorder::Global().SpansNamed(name)) {
      // Event-mode client rounds are dispatch waves, not records, so their
      // samples all count; failed_frac reports any failed record.
      if (!sync || !failed_round[s.round]) samples_ok += s.items;
    }
  }

  const History& h = first.history;
  const int rounds_to_target = w.target > 0 ? h.RoundsToAccuracy(w.target) : -1;

  MetricList e2e;
  e2e.Add("setup_s", Median(setup_s), "s", CountNote(setup_s.size()));
  e2e.Add("round_ms_p50", Percentile(record_ms, 50), "ms",
          CountNote(record_ms.size()));
  e2e.Add("round_ms_p90", Percentile(record_ms, 90), "ms",
          CountNote(record_ms.size()));
  // Every repetition does the same work, so per-repetition throughput is
  // that work over its run time; report the median repetition.
  const double median_run_s = Median(run_s);
  const double reps_n = static_cast<double>(reps.size());
  e2e.Add("updates_per_s", Ratio(updates_ok / reps_n, median_run_s), "1/s");
  e2e.Add("samples_per_s", Ratio(static_cast<double>(samples_ok), median_run_s),
          "1/s");
  e2e.Add("wire_bytes_per_update", Ratio(upload_bytes_ok, updates_ok), "B");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MiB");

  // Printed but not in the JSON line: seed-dependent outcomes, or metrics
  // of one workload only (README.md, "Metrics").
  MetricList extra;
  extra.Add("final_acc", h.FinalAccuracy(), "1");
  extra.Add("failed_frac", Ratio(nonfinite, records_total), "1",
            "(" + std::to_string(nonfinite) + " of " +
                std::to_string(records_total) +
                " records with a non-finite loss)");
  if (w.target > 0) {
    char note[32];
    std::snprintf(note, sizeof(note), "(target %.2f)", w.target);
    extra.Add("rounds_to_target", rounds_to_target, "rounds", note);
    extra.Add("tta_s", tta_s.empty() ? -1.0 : Median(tta_s), "s",
              CountNote(tta_s.size()));
    extra.Add("first_failed_round", first_failed_round, "round");
  }
  if (w.kind == WorkloadKind::kServeIngest) {
    int64_t throttled = 0;
    for (const RepResult& rep : reps) throttled += rep.uploads.throttled;
    extra.Add("throttled", throttled, "count",
              "(THROTTLED acks, all repetitions)");
    extra.Add("upload_ack_ms_p50", Percentile(ack_ms, 50), "ms",
              CountNote(ack_ms.size()));
    extra.Add("upload_ack_ms_p99", Percentile(ack_ms, 99), "ms",
              CountNote(ack_ms.size()));
  }
  extra.Add("run_s_median", median_run_s, "s", CountNote(run_s.size()));

  MetricList layers;
  AddLayerMetrics(w, traced, median_run_s, args.seed, &layers);

  e2e.Print("end-to-end (untraced)");
  extra.Print("workload outcome (untraced)");
  layers.Print("per-layer (traced repetition)");
  std::printf("\nspans: %" PRId64 " written to %s\n",
              SpanRecorder::Global().size(), spans_path.c_str());
  if (first_failed_round >= 0) {
    std::printf("first failed round: %d (non-finite loss; counted in "
                "failed_frac, excluded from round percentiles)\n",
                first_failed_round);
  }
  for (const std::string& v : violations) {
    std::printf("INTEGRITY VIOLATION: %s\n", v.c_str());
  }

  const bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              (args.trace ? layers : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fedadmm::perfbench

int main(int argc, char** argv) {
  return fedadmm::perfbench::Main(argc, argv);
}
