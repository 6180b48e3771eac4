#include "fl/algorithms/fedpd.h"

#include "tensor/vec.h"
#include "util/wire.h"

namespace fedadmm {

void FedPd::Setup(const AlgorithmContext& ctx,
                  std::span<const float> theta0) {
  num_clients_ = ctx.num_clients;
  dim_ = ctx.dim;
  reduce_pool_ = ctx.reduce_pool;
  num_shards_ = ctx.num_shards;
  std::vector<StateSlotSpec> slots(2);
  slots[kSlotModel].dim = ctx.dim;
  slots[kSlotModel].init.assign(theta0.begin(), theta0.end());
  slots[kSlotDual].dim = ctx.dim;
  auto store = MakeConfiguredClientStateStore(
      ctx.state_store, DefaultStateStoreSpec(), ctx.num_clients,
      std::move(slots), ctx.num_shards);
  FEDADMM_CHECK_MSG(store.ok(), store.status().ToString());
  store_ = std::move(store).ValueOrDie();
  comm_rounds_ = 0;
  // Decide the first round's communication coin up front; subsequent coins
  // are flipped in ServerUpdate so ClientUpdate can see a consistent value.
  communicate_this_round_ = coin_rng_.Bernoulli(comm_probability_);
}

UpdateMessage FedPd::ClientUpdate(int client_id, int round,
                                  std::span<const float> theta,
                                  LocalProblem* problem, Rng rng) {
  (void)round;
  std::span<float> w = store_->MutableView(client_id, kSlotModel);
  std::span<float> y = store_->MutableView(client_id, kSlotDual);
  const float rho = rho_;

  // Warm-start from the stored local model; anchor to the *current* θ:
  // grad += y + rho * (w - theta).
  ProximalTerm term;
  term.offset = y;
  term.anchor = theta;
  term.rho = rho;
  const int epochs = SampleEpochs(local_, &rng);
  const LocalSolveResult result =
      RunLocalSgd(problem, local_, epochs, w, &rng, term);
  // Dual ascent: y_i += ρ (w_i − θ).
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] += rho * (w[i] - theta[i]);
  }

  UpdateMessage msg;
  msg.client_id = client_id;
  msg.train_loss = result.mean_loss;
  msg.epochs_run = result.epochs_run;
  msg.steps_run = result.steps_run;
  msg.final_grad_norm_sq = result.final_grad_norm_sq;
  if (communicate_this_round_) {
    // Upload the augmented model w_i + y_i/ρ for global averaging.
    msg.delta.resize(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      msg.delta[i] = w[i] + y[i] / rho;
    }
  }
  store_->Release(client_id);
  return msg;
}

void FedPd::ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                         std::vector<float>* theta) {
  (void)round;
  if (communicate_this_round_) {
    FEDADMM_CHECK_MSG(static_cast<int>(updates.size()) == num_clients_,
                      "FedPD requires full participation");
    vec::Zero(*theta);
    const float inv_m = 1.0f / static_cast<float>(num_clients_);
    std::vector<std::span<const float>> deltas;
    deltas.reserve(updates.size());
    for (const UpdateMessage& msg : updates) deltas.push_back(msg.delta);
    // θ = (1/m) Σ (w_i + y_i/ρ) as per-shard partials (flat at W = 1).
    vec::AxpyManySharded(inv_m, deltas, UpdateShards(updates), num_shards_,
                         *theta, reduce_pool_);
    ++comm_rounds_;
  }
  communicate_this_round_ = coin_rng_.Bernoulli(comm_probability_);
}

void FedPd::AggregateOne(UpdateMessage msg, int round, int staleness,
                         std::vector<float>* theta) {
  (void)msg;
  (void)round;
  (void)staleness;
  (void)theta;
  FEDADMM_CHECK_MSG(false,
                    "FedPD requires full participation and cannot aggregate "
                    "per-update; use ExecutionMode::kSync");
}

Status FedPd::ValidateForEventMode() const {
  return Status::InvalidArgument(
      "FedPD aggregates θ = (1/m) Σ (w_i + y_i/ρ) over the full population; "
      "buffered/async partial batches cannot form that mean. Use "
      "ExecutionMode::kSync with FullParticipationSelector");
}

int64_t FedPd::StateBytesResident() const {
  return store_ ? store_->bytes_resident() : 0;
}

std::string FedPd::SerializeExtraState() const {
  // The coin stream decides *future* aggregation rounds: without it a
  // restored run would re-seed and draw a different communication
  // schedule than the uninterrupted one.
  std::vector<uint8_t> blob;
  wire::Writer writer(&blob);
  writer.PutString(coin_rng_.SerializeState());
  writer.PutU32(static_cast<uint32_t>(comm_rounds_));
  writer.PutU8(communicate_this_round_ ? 1 : 0);
  return std::string(blob.begin(), blob.end());
}

Status FedPd::RestoreExtraState(const std::string& blob) {
  wire::ReaderView reader(blob);
  std::string coin_state;
  uint32_t comm_rounds = 0;
  uint8_t communicate = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryString(&coin_state));
  FEDADMM_RETURN_IF_ERROR(coin_rng_.RestoreState(coin_state));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&comm_rounds));
  FEDADMM_RETURN_IF_ERROR(reader.TryU8(&communicate));
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "FedPd::RestoreExtraState: trailing bytes in checkpoint blob");
  }
  comm_rounds_ = static_cast<int>(comm_rounds);
  communicate_this_round_ = communicate != 0;
  return Status::OK();
}

}  // namespace fedadmm
