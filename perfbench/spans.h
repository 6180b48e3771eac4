/// \file spans.h
/// \brief Outside-in span recorder for the traced benchmark run.
///
/// The benchmark times calls into the library's public interfaces from its
/// own decorators (decorators.h); nothing inside src/ is instrumented. A
/// span is one call across a layer boundary: its name, start, end, the
/// span that was open on the same thread when it began (its parent), and
/// the request it served — (round, client) for client work, the upload's
/// (round, client) for serve sends. Spans stay in per-thread memory while
/// the traced run executes and are written out once it ends.
///
/// Self time of a span is its duration minus the durations of its direct
/// children. Children always run on the parent's thread (the thread-local
/// open-span stack links them), so they nest inside the parent interval.

#ifndef FEDADMM_PERFBENCH_SPANS_H_
#define FEDADMM_PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace fedadmm::perfbench {

/// Every layer boundary the decorators time.
enum class SpanName : uint8_t {
  kBatchGrad,     // LocalProblem::BatchLossGradient
  kFullGrad,      // LocalProblem::FullLossGradient
  kEval,          // FederatedProblem::Evaluate
  kClientUpdate,  // FederatedAlgorithm::ClientUpdate
  kServerUpdate,  // FederatedAlgorithm::ServerUpdate
  kAggregateOne,  // FederatedAlgorithm::AggregateOne
  kSelect,        // ClientSelector::Select
  kEncode,        // UpdateCodec::Encode
  kDecode,        // UpdateCodec::Decode
  kTryDecode,     // UpdateCodec::TryDecode
  kSend,          // serve::ClientChannel::Send
  kCollectWave,   // IngestSource::CollectWave
  kCount,
};
inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);

/// Stable display name, e.g. "problem.batch_grad".
const char* SpanNameString(SpanName name);

/// One recorded call. Times are nanoseconds since the recorder started.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t round = -1;
  int32_t client = -1;
  /// Work items the call carried: samples for a gradient, clients drawn
  /// for a selection; 0 otherwise.
  int32_t items = 0;
  SpanName name = SpanName::kCount;
};

/// Per-name totals over one recording.
struct SpanTotals {
  int64_t calls = 0;
  int64_t items = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// \brief Process-wide recorder; disabled (every scope a no-op) until
/// `Start`.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  /// Drops any previous recording and starts a new one. The calling thread
  /// is the engine thread for `EngineTopLevelMs`.
  void Start();
  /// Stops recording. Call after every recording thread has been joined.
  void Stop();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// One thread's spans, in the order they ended.
  struct ThreadBuffer {
    std::vector<Span> spans;
    bool engine = false;
  };

  /// Totals per span name (valid after Stop).
  std::array<SpanTotals, kNumSpanNames> Totals() const;
  /// All spans of `name`, from every thread (valid after Stop).
  std::vector<Span> SpansNamed(SpanName name) const;
  /// Sum of durations of the engine thread's top-level spans, in ms.
  double EngineTopLevelMs() const;
  /// Number of spans recorded.
  int64_t size() const;

  /// Writes every span as a binary file: the ASCII line
  /// "perfbench-spans v1\n", a u32 name count and that many
  /// NUL-terminated names, then one 45-byte little-endian record per span
  /// (i64 id, i64 parent, i64 start_ns, i64 end_ns, i32 round, i32 client,
  /// i32 items, u8 name).
  Status Write(const std::string& path) const;

 private:
  friend class SpanScope;

  /// This thread's buffer in the current recording (registers it first).
  ThreadBuffer* BufferForThisThread();
  /// Nanoseconds since Start.
  int64_t NowNs() const;
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  std::atomic<uint64_t> generation_{0};
  int64_t start_epoch_ns_ = 0;
  std::thread::id engine_thread_;
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief Records one span for the enclosing block when the recorder is
/// enabled; costs one atomic load otherwise.
class SpanScope {
 public:
  explicit SpanScope(SpanName name);
  ~SpanScope();

  void set_items(int64_t items) { span_.items = static_cast<int32_t>(items); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;
  Span span_;
};

/// \brief Sets the request id spans on this thread inherit, restoring the
/// previous one on exit.
class RequestScope {
 public:
  RequestScope(int round, int client);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  int32_t saved_round_;
  int32_t saved_client_;
};

}  // namespace fedadmm::perfbench

#endif  // FEDADMM_PERFBENCH_SPANS_H_
