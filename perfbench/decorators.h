/// \file decorators.h
/// \brief Timing decorators for the library interfaces a client update
/// crosses.
///
/// Each decorator forwards every virtual of its interface to the wrapped
/// object — a missed forward would fall back to the base-class default and
/// silently change the program — and wraps the calls that do work in a
/// `SpanScope`. The traced run installs them; the untraced run does not,
/// except `TimedTransport`, whose channels measure the client-observed
/// upload latency of the serve workload (spans stay off there).

#ifndef FEDADMM_PERFBENCH_DECORATORS_H_
#define FEDADMM_PERFBENCH_DECORATORS_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "fl/algorithm.h"
#include "fl/ingest.h"
#include "fl/problem.h"
#include "fl/selection.h"
#include "serve/frame.h"
#include "serve/transport.h"
#include "spans.h"

namespace fedadmm::perfbench {

/// \brief `LocalProblem` decorator: gradient spans carry their sample
/// count.
class TimedLocalProblem final : public LocalProblem {
 public:
  explicit TimedLocalProblem(std::unique_ptr<LocalProblem> inner)
      : inner_(std::move(inner)) {}

  int64_t dim() const override { return inner_->dim(); }
  int num_samples() const override { return inner_->num_samples(); }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    SpanScope span(SpanName::kBatchGrad);
    span.set_items(static_cast<int64_t>(batch.size()));
    return inner_->BatchLossGradient(w, batch, grad);
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    return inner_->EpochBatches(batch_size, rng);
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    SpanScope span(SpanName::kFullGrad);
    span.set_items(inner_->num_samples());
    return inner_->FullLossGradient(w, grad);
  }

 private:
  std::unique_ptr<LocalProblem> inner_;
};

/// \brief `FederatedProblem` decorator.
class TimedProblem final : public FederatedProblem {
 public:
  explicit TimedProblem(FederatedProblem* inner) : inner_(inner) {}

  int num_clients() const override { return inner_->num_clients(); }
  int64_t dim() const override { return inner_->dim(); }
  int num_workers() const override { return inner_->num_workers(); }

  std::unique_ptr<LocalProblem> MakeLocalProblem(int client,
                                                 int worker) override {
    return std::make_unique<TimedLocalProblem>(
        inner_->MakeLocalProblem(client, worker));
  }

  EvalResult Evaluate(std::span<const float> theta, int worker) override {
    SpanScope span(SpanName::kEval);
    return inner_->Evaluate(theta, worker);
  }

  std::vector<float> InitialParameters(Rng* rng) override {
    return inner_->InitialParameters(rng);
  }

 private:
  FederatedProblem* inner_;
};

/// \brief `FederatedAlgorithm` decorator. `ClientUpdate` opens the
/// (round, client) request its problem calls inherit.
class TimedAlgorithm final : public FederatedAlgorithm {
 public:
  /// `DetachReducePool` is not virtual: after a run the engine has
  /// detached only this decorator, so the wrapped method must not run
  /// post-run reductions (the benchmark never does).
  explicit TimedAlgorithm(FederatedAlgorithm* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  void Setup(const AlgorithmContext& ctx,
             std::span<const float> theta0) override {
    inner_->Setup(ctx, theta0);
  }

  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override {
    RequestScope request(round, client_id);
    SpanScope span(SpanName::kClientUpdate);
    return inner_->ClientUpdate(client_id, round, theta, problem,
                                std::move(rng));
  }

  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override {
    SpanScope span(SpanName::kServerUpdate);
    span.set_items(static_cast<int64_t>(updates.size()));
    inner_->ServerUpdate(updates, round, theta);
  }

  void AggregateOne(UpdateMessage msg, int round, int staleness,
                    std::vector<float>* theta) override {
    SpanScope span(SpanName::kAggregateOne);
    inner_->AggregateOne(std::move(msg), round, staleness, theta);
  }

  int64_t DownloadBytesPerClient() const override {
    return inner_->DownloadBytesPerClient();
  }
  int64_t StateBytesResident() const override {
    return inner_->StateBytesResident();
  }
  std::string DefaultStateStoreSpec() const override {
    return inner_->DefaultStateStoreSpec();
  }
  Status ValidateForEventMode() const override {
    return inner_->ValidateForEventMode();
  }
  ClientStateStore* mutable_state_store() override {
    return inner_->mutable_state_store();
  }
  std::string SerializeExtraState() const override {
    return inner_->SerializeExtraState();
  }
  Status RestoreExtraState(const std::string& blob) override {
    return inner_->RestoreExtraState(blob);
  }

 private:
  FederatedAlgorithm* inner_;
};

/// \brief `ClientSelector` decorator: select spans carry the number of
/// clients drawn.
class TimedSelector final : public ClientSelector {
 public:
  explicit TimedSelector(ClientSelector* inner) : inner_(inner) {}

  std::vector<int> Select(int round, Rng* rng) override {
    SpanScope span(SpanName::kSelect);
    std::vector<int> selected = inner_->Select(round, rng);
    span.set_items(static_cast<int64_t>(selected.size()));
    return selected;
  }
  int num_clients() const override { return inner_->num_clients(); }
  std::string name() const override { return inner_->name(); }

 private:
  ClientSelector* inner_;
};

/// \brief `UpdateCodec` decorator.
class TimedCodec final : public UpdateCodec {
 public:
  explicit TimedCodec(UpdateCodec* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  Payload Encode(int64_t stream, const std::vector<float>& v,
                 Rng* rng) override {
    SpanScope span(SpanName::kEncode);
    return inner_->Encode(stream, v, rng);
  }

  std::vector<float> Decode(const Payload& payload) const override {
    SpanScope span(SpanName::kDecode);
    return inner_->Decode(payload);
  }

  Result<std::vector<float>> TryDecode(const uint8_t* data, size_t len,
                                       int64_t expected_dim) const override {
    SpanScope span(SpanName::kTryDecode);
    return inner_->TryDecode(data, len, expected_dim);
  }

  int64_t WireBytes(int64_t dim) const override {
    return inner_->WireBytes(dim);
  }
  bool deterministic() const override { return inner_->deterministic(); }
  bool stateful() const override { return inner_->stateful(); }

 private:
  UpdateCodec* inner_;
};

/// \brief `IngestSource` decorator: the span is the engine's wait for a
/// served wave.
class TimedIngest final : public IngestSource {
 public:
  explicit TimedIngest(IngestSource* inner) : inner_(inner) {}

  Status StartServing(int num_clients, int64_t dim) override {
    return inner_->StartServing(num_clients, dim);
  }
  Status BeginRound(int round, const std::vector<int>& cohort,
                    const DownlinkPlan& downlink,
                    const std::vector<float>& theta) override {
    return inner_->BeginRound(round, cohort, downlink, theta);
  }
  Result<std::vector<UpdateMessage>> CollectWave(int round) override {
    SpanScope span(SpanName::kCollectWave);
    return inner_->CollectWave(round);
  }

 private:
  IngestSource* inner_;
};

/// Client-observed upload outcomes of one serve run.
struct UploadStats {
  /// Milliseconds from an upload's first UPDATE send to its terminal ACK,
  /// one sample per resolved upload.
  std::vector<double> ack_ms;
  int64_t update_sends = 0;  // UPDATE frames sent, resends too
  int64_t throttled = 0;     // THROTTLED acks
  int64_t accepted = 0;
  int64_t partial = 0;
  int64_t rejected = 0;  // mirrored deadline drops
  int64_t errors = 0;    // uploads ended by an ERROR frame
};

/// \brief Client-side upload outcomes of a serve run, shared by every
/// channel of one `TimedTransport`.
class UploadLedger {
 public:
  void AddLatency(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_ms_.push_back(ms);
  }

  /// Call once every channel is idle.
  UploadStats Stats() const {
    UploadStats stats;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.ack_ms = latency_ms_;
    }
    stats.update_sends = update_sends.load();
    stats.throttled = throttled.load();
    stats.accepted = accepted.load();
    stats.partial = partial.load();
    stats.rejected = rejected.load();
    stats.errors = errors.load();
    return stats;
  }

  std::atomic<int64_t> update_sends{0};
  std::atomic<int64_t> throttled{0};
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> partial{0};
  std::atomic<int64_t> rejected{0};
  std::atomic<int64_t> errors{0};

 private:
  mutable std::mutex mu_;  // guards latency_ms_
  std::vector<double> latency_ms_;
};

/// \brief `serve::ClientChannel` decorator: times sends and follows each
/// session's upload from its first UPDATE to its terminal ACK.
class TimedChannel final : public serve::ClientChannel {
 public:
  TimedChannel(std::unique_ptr<serve::ClientChannel> inner,
               UploadLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  Status Send(const std::vector<uint8_t>& frame) override {
    serve::FrameHeader header;
    if (serve::ParseFrameHeader(frame.data(), frame.size(), &header).ok()) {
      const uint8_t* body = frame.data() + serve::kFrameHeaderBytes;
      const size_t body_len = frame.size() - serve::kFrameHeaderBytes;
      if (header.type == serve::FrameType::kHello) {
        uint32_t client = 0;
        if (serve::ParseHelloBody(body, body_len, &client).ok()) {
          client_ = static_cast<int>(client);
        }
      } else if (header.type == serve::FrameType::kUpdate) {
        ledger_->update_sends.fetch_add(1, std::memory_order_relaxed);
        serve::UpdateBody update;
        if (!pending_ &&
            serve::ParseUpdateBody(body, body_len, &update).ok()) {
          pending_ = true;
          round_ = static_cast<int>(update.header.round);
          upload_start_ = Clock::now();
        }
      }
    }
    RequestScope request(round_, client_);
    SpanScope span(SpanName::kSend);
    return inner_->Send(frame);
  }

  Result<bool> TryReceiveFrame(std::vector<uint8_t>* frame) override {
    Result<bool> got = inner_->TryReceiveFrame(frame);
    if (got.ok() && *got) Observe(*frame);
    return got;
  }

  void Close() override { inner_->Close(); }

 private:
  using Clock = std::chrono::steady_clock;

  void Observe(const std::vector<uint8_t>& frame) {
    serve::FrameHeader header;
    if (!pending_ ||
        !serve::ParseFrameHeader(frame.data(), frame.size(), &header).ok()) {
      return;
    }
    const uint8_t* body = frame.data() + serve::kFrameHeaderBytes;
    if (header.type == serve::FrameType::kError) {
      ledger_->errors.fetch_add(1, std::memory_order_relaxed);
      pending_ = false;
      return;
    }
    serve::AckBody ack;
    if (header.type != serve::FrameType::kAck ||
        !serve::ParseAckBody(body, header.body_len, &ack).ok()) {
      return;
    }
    switch (ack.status) {
      case serve::AckStatus::kThrottled:
        ledger_->throttled.fetch_add(1, std::memory_order_relaxed);
        return;  // the client resends; the upload is still pending
      case serve::AckStatus::kAccepted:
        ledger_->accepted.fetch_add(1, std::memory_order_relaxed);
        break;
      case serve::AckStatus::kPartial:
        ledger_->partial.fetch_add(1, std::memory_order_relaxed);
        break;
      case serve::AckStatus::kRejected:
        ledger_->rejected.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    ledger_->AddLatency(
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  upload_start_)
            .count());
    pending_ = false;
  }

  std::unique_ptr<serve::ClientChannel> inner_;
  UploadLedger* ledger_;
  // One session is driven by one thread at a time (transport.h), so the
  // upload state needs no lock.
  int client_ = -1;
  int round_ = -1;
  bool pending_ = false;
  Clock::time_point upload_start_;
};

/// \brief `serve::Transport` decorator handing out `TimedChannel`s.
class TimedTransport final : public serve::Transport {
 public:
  TimedTransport(serve::Transport* inner, UploadLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  Status Start(serve::FrameSink* sink) override { return inner_->Start(sink); }

  Result<std::unique_ptr<serve::ClientChannel>> Connect() override {
    Result<std::unique_ptr<serve::ClientChannel>> channel = inner_->Connect();
    if (!channel.ok()) return channel.status();
    std::unique_ptr<serve::ClientChannel> timed =
        std::make_unique<TimedChannel>(
            std::move(channel).ValueOrDie(), ledger_);
    return timed;
  }

  void Stop() override { inner_->Stop(); }
  const std::string& name() const override { return inner_->name(); }

 private:
  serve::Transport* inner_;
  UploadLedger* ledger_;
};

}  // namespace fedadmm::perfbench

#endif  // FEDADMM_PERFBENCH_DECORATORS_H_
