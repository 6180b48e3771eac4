#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace fedadmm::perfbench {
namespace {

/// Per-thread recording state. `generation` ties `buffer` to one
/// recording; a stale generation re-registers on the next span.
struct ThreadState {
  uint64_t generation = ~uint64_t{0};
  SpanRecorder::ThreadBuffer* buffer = nullptr;
  std::vector<int64_t> open;  // ids of this thread's open spans
  int32_t round = -1;
  int32_t client = -1;
};

thread_local ThreadState tls;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls `fn(span, self_ns)` for every span of `buffer`, in order.
template <typename Fn>
void ForEachWithSelf(const SpanRecorder::ThreadBuffer& buffer, Fn fn) {
  // Children end before their parent, so a child's duration is waiting in
  // the map by the time the parent is visited.
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : buffer.spans) {
    const int64_t dur = span.end_ns - span.start_ns;
    int64_t self = dur;
    if (auto it = child_ns.find(span.id); it != child_ns.end()) {
      self -= it->second;
      child_ns.erase(it);
    }
    if (span.parent >= 0) child_ns[span.parent] += dur;
    fn(span, self);
  }
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kBatchGrad:
      return "problem.batch_grad";
    case SpanName::kFullGrad:
      return "problem.full_grad";
    case SpanName::kEval:
      return "problem.eval";
    case SpanName::kClientUpdate:
      return "algo.client_update";
    case SpanName::kServerUpdate:
      return "algo.server_update";
    case SpanName::kAggregateOne:
      return "algo.aggregate_one";
    case SpanName::kSelect:
      return "select";
    case SpanName::kEncode:
      return "codec.encode";
    case SpanName::kDecode:
      return "codec.decode";
    case SpanName::kTryDecode:
      return "codec.try_decode";
    case SpanName::kSend:
      return "serve.send";
    case SpanName::kCollectWave:
      return "serve.collect_wave";
    case SpanName::kCount:
      break;
  }
  return "?";
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.clear();
  }
  engine_thread_ = std::this_thread::get_id();
  next_id_.store(0, std::memory_order_relaxed);
  start_epoch_ns_ = SteadyNs();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  enabled_.store(true, std::memory_order_release);
}

void SpanRecorder::Stop() { enabled_.store(false, std::memory_order_release); }

int64_t SpanRecorder::NowNs() const { return SteadyNs() - start_epoch_ns_; }

SpanRecorder::ThreadBuffer* SpanRecorder::BufferForThisThread() {
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (tls.generation != generation) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->engine = std::this_thread::get_id() == engine_thread_;
    tls.buffer = buffer.get();
    tls.generation = generation;
    tls.open.clear();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return tls.buffer;
}

std::array<SpanTotals, kNumSpanNames> SpanRecorder::Totals() const {
  std::array<SpanTotals, kNumSpanNames> totals{};
  for (const auto& buffer : buffers_) {
    ForEachWithSelf(*buffer, [&](const Span& span, int64_t self_ns) {
      SpanTotals& t = totals[static_cast<size_t>(span.name)];
      ++t.calls;
      t.items += span.items;
      t.total_ms += (span.end_ns - span.start_ns) * 1e-6;
      t.self_ms += self_ns * 1e-6;
    });
  }
  return totals;
}

std::vector<Span> SpanRecorder::SpansNamed(SpanName name) const {
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.name == name) out.push_back(span);
    }
  }
  return out;
}

double SpanRecorder::EngineTopLevelMs() const {
  double ms = 0.0;
  for (const auto& buffer : buffers_) {
    if (!buffer->engine) continue;
    for (const Span& span : buffer->spans) {
      if (span.parent < 0) ms += (span.end_ns - span.start_ns) * 1e-6;
    }
  }
  return ms;
}

int64_t SpanRecorder::size() const {
  int64_t n = 0;
  for (const auto& buffer : buffers_) {
    n += static_cast<int64_t>(buffer->spans.size());
  }
  return n;
}

Status SpanRecorder::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> out;
  const auto put = [&out](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out.insert(out.end(), b, b + n);  // host order; x86-64 is little-endian
  };
  const char magic[] = "perfbench-spans v1\n";
  put(magic, sizeof(magic) - 1);
  const uint32_t names = kNumSpanNames;
  put(&names, sizeof(names));
  for (int i = 0; i < kNumSpanNames; ++i) {
    const char* name = SpanNameString(static_cast<SpanName>(i));
    put(name, std::strlen(name) + 1);
  }
  bool ok = true;
  const auto flush = [&] {
    ok = ok && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    out.clear();
  };
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      put(&s.id, 8);
      put(&s.parent, 8);
      put(&s.start_ns, 8);
      put(&s.end_ns, 8);
      put(&s.round, 4);
      put(&s.client, 4);
      put(&s.items, 4);
      const uint8_t name = static_cast<uint8_t>(s.name);
      put(&name, 1);
      if (out.size() >= (1u << 20)) flush();
    }
  }
  flush();
  ok = (std::fclose(f) == 0) && ok;
  return ok ? Status::OK() : Status::IoError("short write to " + path);
}

SpanScope::SpanScope(SpanName name) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  buffer_ = recorder.BufferForThisThread();
  span_.id = recorder.NextId();
  span_.parent = tls.open.empty() ? -1 : tls.open.back();
  span_.round = tls.round;
  span_.client = tls.client;
  span_.name = name;
  tls.open.push_back(span_.id);
  span_.start_ns = recorder.NowNs();
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  span_.end_ns = SpanRecorder::Global().NowNs();
  tls.open.pop_back();
  buffer_->spans.push_back(span_);
}

RequestScope::RequestScope(int round, int client)
    : saved_round_(tls.round), saved_client_(tls.client) {
  tls.round = round;
  tls.client = client;
}

RequestScope::~RequestScope() {
  tls.round = saved_round_;
  tls.client = saved_client_;
}

}  // namespace fedadmm::perfbench
