/// \file bench_paper.cc
/// \brief Reproduces the paper's evaluation (Section V) at CPU-bench scale:
/// one row per table or figure, plus an ablation of FedADMM's design
/// choices.
///
///   bench_paper                 # every row, in the order of kRows
///   bench_paper table3 fig6     # only the named rows
///
/// An unknown row id lists the valid ids on stderr and exits with status 2.
/// Each row prints the paper's reference values or expected shape next to
/// the measured ones; the FEDADMM_BENCH_* scale knobs are described in
/// bench_common.h.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "fl/quadratic_problem.h"
#include "util/stopwatch.h"

namespace {

using namespace fedadmm;
using namespace fedadmm::bench;

// ---------------------------------------------------------------------------
// Shared runners and printers.

/// Test accuracy after every round of one run at 10% participation.
std::vector<double> AccuracySeries(Scenario* scenario,
                                   FederatedAlgorithm* algo, int rounds,
                                   uint64_t seed) {
  const History h = RunScenario(scenario, algo, 0.1, rounds, seed);
  std::vector<double> acc;
  for (const RoundRecord& r : h.records()) acc.push_back(r.test_accuracy);
  return acc;
}

/// One column of a series table.
struct SeriesColumn {
  std::string label;
  int width;
  std::vector<double> accuracy;
};

/// Prints every (rounds / rows_per_table)-th round of the columns, then
/// their last round as a `final` row.
void PrintSeries(const std::vector<SeriesColumn>& columns, int rounds,
                 int rows_per_table) {
  std::printf("%-6s", "round");
  for (const SeriesColumn& c : columns) {
    std::printf(" %-*s", c.width, c.label.c_str());
  }
  std::printf("\n");
  const int step = std::max(1, rounds / rows_per_table);
  for (int r = 0; r < rounds; r += step) {
    std::printf("%-6d", r);
    for (const SeriesColumn& c : columns) {
      std::printf(" %-*.3f", c.width, c.accuracy[static_cast<size_t>(r)]);
    }
    std::printf("\n");
  }
  std::printf("%-6s", "final");
  for (const SeriesColumn& c : columns) {
    std::printf(" %-*.3f", c.width, c.accuracy.back());
  }
  std::printf("\n");
}

/// A labelled FedADMM configuration: one column of a series table.
struct AdmmVariant {
  std::string label;
  int width;
  FedAdmmOptions options;
};

/// Prints the accuracy series of each FedADMM variant on one scenario.
void PrintAdmmSeries(Scenario* scenario,
                     const std::vector<AdmmVariant>& variants, int rounds,
                     uint64_t seed) {
  std::vector<SeriesColumn> columns;
  for (const AdmmVariant& v : variants) {
    FedAdmm algo(v.options);
    columns.push_back(
        {v.label, v.width, AccuracySeries(scenario, &algo, rounds, seed)});
  }
  PrintSeries(columns, rounds, 12);
}

/// Rounds to `target` of a 10%-participation run that stops there;
/// `budget + 1` when the budget runs out first.
int RoundsToTarget(Scenario* scenario, FederatedAlgorithm* algo, int budget,
                   double target, uint64_t seed) {
  const History h = RunScenario(scenario, algo, 0.1, budget, seed, target);
  const int r = h.RoundsToAccuracy(target);
  return r < 0 ? budget + 1 : r;
}

/// Formats a censored round count ("budget+" past the budget).
std::string FormatCensored(int rounds, int budget) {
  return FormatRounds(rounds > budget ? -1 : rounds, budget);
}

/// FedADMM's reduction in rounds over the best baseline (the paper's
/// metric), e.g. "+47%"; "n/a" when both missed the target, since censored
/// counts carry no ratio.
std::string FormatReduction(double admm, double best_baseline, int budget) {
  if (admm > budget && best_baseline > budget) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.0f%%",
                (1.0 - admm / best_baseline) * 100.0);
  return buf;
}

struct Method {
  const char* name;
  std::unique_ptr<FederatedAlgorithm> algo;
};

/// The line-up of Figs. 3, 4 and 10 and Table III. Unlike
/// MakeBenchAlgorithm's, this FedProx runs variable epochs at ρ = 0.1.
std::vector<Method> LineUp() {
  LocalTrainSpec variable = BenchLocalSpec();
  variable.variable_epochs = true;
  std::vector<Method> methods;
  methods.push_back({"FedADMM", std::make_unique<FedAdmm>(BenchAdmmOptions())});
  methods.push_back({"FedAvg", std::make_unique<FedAvg>(BenchLocalSpec())});
  methods.push_back({"FedProx", std::make_unique<FedProx>(variable, 0.1f)});
  methods.push_back({"SCAFFOLD", std::make_unique<Scaffold>(BenchLocalSpec())});
  return methods;
}

/// The line-up's accuracy series on one scenario, as 9-wide columns.
std::vector<SeriesColumn> LineUpSeries(Scenario* scenario, int rounds,
                                       uint64_t seed) {
  std::vector<SeriesColumn> columns;
  for (Method& m : LineUp()) {
    columns.push_back(
        {m.name, 9, AccuracySeries(scenario, m.algo.get(), rounds, seed)});
  }
  return columns;
}

/// A 16-client convex quadratic federation.
QuadraticSpec QuadSpec(double heterogeneity, uint64_t seed) {
  QuadraticSpec spec;
  spec.num_clients = 16;
  spec.dim = 16;
  spec.heterogeneity = heterogeneity;
  spec.seed = seed;
  return spec;
}

LocalTrainSpec QuadLocal(bool variable_epochs) {
  LocalTrainSpec local;
  local.learning_rate = 0.04f;
  local.batch_size = 0;
  local.max_epochs = 8;
  local.variable_epochs = variable_epochs;
  return local;
}

/// FedADMM on the quadratic federation, with the analyzed step size
/// η = |S|/m.
FedAdmmOptions QuadAdmmOptions(bool variable_epochs) {
  FedAdmmOptions options;
  options.local = QuadLocal(variable_epochs);
  options.rho = StepSchedule(2.0);
  options.eta_active_fraction = true;
  return options;
}

struct QuadOutcome {
  int rounds_to_threshold = -1;  // first round with metric <= threshold
  double final_metric = 1e9;
};

/// Runs `algo` on a fresh federation built from `spec`, evaluating
/// `metric` on θ after every round.
QuadOutcome RunQuadratic(
    const QuadraticSpec& spec, FederatedAlgorithm* algo, double fraction,
    int rounds, uint64_t seed, double threshold,
    const std::function<double(const QuadraticProblem&,
                               std::span<const float>)>& metric) {
  QuadraticProblem problem(spec);
  UniformFractionSelector selector(problem.num_clients(), fraction);
  SimulationConfig config;
  config.max_rounds = rounds;
  config.seed = seed;
  config.num_threads = 8;
  Simulation sim(&problem, algo, &selector, config);
  QuadOutcome out;
  sim.set_observer([&](const RoundRecord& r) {
    const double value = metric(problem, sim.theta());
    if (out.rounds_to_threshold < 0 && value <= threshold) {
      out.rounds_to_threshold = r.round + 1;
    }
    out.final_metric = value;
  });
  (void)sim.Run();
  return out;
}

/// ‖∇F(θ)‖² of the global objective F = (1/m) Σ_i F_i.
double SquaredGlobalGradient(const QuadraticProblem& problem,
                             std::span<const float> theta) {
  std::vector<float> grad(static_cast<size_t>(problem.dim()));
  std::vector<double> total(static_cast<size_t>(problem.dim()), 0.0);
  for (int i = 0; i < problem.num_clients(); ++i) {
    problem.ClientGradient(i, theta, grad);
    for (size_t k = 0; k < total.size(); ++k) total[k] += grad[k];
  }
  double norm_sq = 0.0;
  for (double v : total) norm_sq += v * v;
  norm_sq /= problem.num_clients() * problem.num_clients();
  return norm_sq;
}

// ---------------------------------------------------------------------------
// Rows.

/// Table I is theoretical; this row measures what the theory predicts on
/// convex federated quadratics, where stationarity is exactly computable:
/// FedADMM's O(1/ε · m/S) dependence (halving S should roughly double the
/// rounds), and the method ordering under heavy heterogeneity (B → ∞:
/// FedProx's S > B² condition fails, FedADMM's analysis still applies).
void Table1() {
  const int budget = RoundBudget(400, 1200);
  const double eps = 1e-3;
  auto rounds_to_eps = [&](const QuadraticSpec& spec,
                           FederatedAlgorithm* algo, double fraction,
                           uint64_t seed) {
    const QuadOutcome out = RunQuadratic(spec, algo, fraction, budget, seed,
                                         eps, SquaredGlobalGradient);
    return out.rounds_to_threshold;
  };

  // Part 1: FedADMM's O(m/S) dependence — fix m, vary S.
  std::printf("\nFedADMM rounds vs participation (theory: rounds ∝ m/S):\n");
  std::printf("%-8s %-8s %-12s %-18s\n", "m", "S", "rounds", "rounds*(S/m)");
  for (double fraction : {1.0, 0.5, 0.25, 0.125}) {
    FedAdmm algo(QuadAdmmOptions(/*variable_epochs=*/false));
    const int rounds = rounds_to_eps(QuadSpec(1.5, 77), &algo, fraction, 3);
    const int s = std::max(1, static_cast<int>(fraction * 16));
    std::printf("%-8d %-8d %-12s %-18.1f\n", 16, s,
                FormatRounds(rounds, budget).c_str(),
                rounds > 0 ? rounds * (static_cast<double>(s) / 16) : -1.0);
  }

  // Part 2: method comparison under heavy heterogeneity (B -> infinity).
  std::printf(
      "\nMethod comparison, m=16, S=4, heterogeneity=3 (rounds to eps):\n");
  std::printf("%-14s %-10s %-44s\n", "method", "rounds",
              "paper Table I complexity");
  struct Entry {
    const char* name;
    const char* complexity;
    std::unique_ptr<FederatedAlgorithm> algo;
  };
  std::vector<Entry> entries;
  entries.push_back({"FedSGD", "O(1/eps^2 * (m-S)/mS + ...)",
                     std::make_unique<FedSgd>(0.08f)});
  entries.push_back({"FedAvg", "O(1/eps^2 + G/eps^1.5 + B^2/eps)",
                     std::make_unique<FedAvg>(QuadLocal(false))});
  entries.push_back({"FedProx", "O(B^2/eps), needs S > B^2",
                     std::make_unique<FedProx>(QuadLocal(true), 2.0f)});
  entries.push_back({"SCAFFOLD", "O(1/eps^2 + (m/S)^{2/3}/eps)",
                     std::make_unique<Scaffold>(QuadLocal(false))});
  entries.push_back({"FedADMM", "O(1/eps * m/S)",
                     std::make_unique<FedAdmm>(QuadAdmmOptions(true))});
  for (const Entry& e : entries) {
    const int rounds = rounds_to_eps(QuadSpec(3.0, 77), e.algo.get(), 0.25, 5);
    std::printf("%-14s %-10s %-44s\n", e.name,
                FormatRounds(rounds, budget).c_str(), e.complexity);
  }
}

void TimeModel(Model* model, const Shape& input_shape, double* fwd_ms,
               double* fwdbwd_ms) {
  Rng rng(1);
  model->Initialize(&rng);
  Tensor x(input_shape);
  x.FillNormal(&rng);
  std::vector<int> labels;
  for (int64_t i = 0; i < input_shape.dim(0); ++i) {
    labels.push_back(static_cast<int>(i % 10));
  }
  // Warmup.
  model->Predict(x);
  Stopwatch watch;
  const int reps = 3;
  for (int i = 0; i < reps; ++i) model->Predict(x);
  *fwd_ms = watch.ElapsedMillis() / reps;
  watch.Reset();
  for (int i = 0; i < reps; ++i) {
    model->ZeroGrad();
    model->ForwardBackward(x, labels);
  }
  *fwdbwd_ms = watch.ElapsedMillis() / reps;
}

/// Table II: builds the two exact paper CNNs, checks their parameter counts
/// against the published ones, and reports per-sample CPU training cost
/// (which motivates the scaled bench models used elsewhere).
void Table2() {
  struct ModelRow {
    const char* model_name;
    ModelConfig config;
    int64_t paper_params;
    const char* dataset;
  };
  const ModelRow rows[] = {
      {"CNN 1", PaperCnn1Config(), 1663370, "MNIST / FMNIST"},
      {"CNN 2", PaperCnn2Config(), 1105098, "CIFAR-10"},
  };

  std::printf("%-8s %-14s %-14s %-8s %-16s %-10s %-12s\n", "model",
              "paper #params", "built #params", "match", "dataset",
              "fwd ms/8", "fwd+bwd ms/8");
  for (const ModelRow& row : rows) {
    auto model = BuildModel(row.config);
    const int64_t built = model->NumParameters();
    double fwd = 0, fwdbwd = 0;
    const Shape input({8, row.config.in_channels, row.config.height,
                       row.config.width});
    TimeModel(model.get(), input, &fwd, &fwdbwd);
    std::printf("%-8s %-14lld %-14lld %-8s %-16s %-10.1f %-12.1f\n",
                row.model_name, static_cast<long long>(row.paper_params),
                static_cast<long long>(built),
                built == row.paper_params ? "EXACT" : "MISMATCH", row.dataset,
                fwd, fwdbwd);
  }

  // The scaled bench model used by the other rows, for context.
  auto bench_model = BuildModel(BenchCnnConfig(1, 12));
  double fwd = 0, fwdbwd = 0;
  TimeModel(bench_model.get(), Shape({8, 1, 12, 12}), &fwd, &fwdbwd);
  std::printf("%-8s %-14s %-14lld %-8s %-16s %-10.1f %-12.1f\n", "bench",
              "(n/a)", static_cast<long long>(bench_model->NumParameters()),
              "-", "synthetic", fwd, fwdbwd);
}

/// Table III: rounds to a target accuracy across datasets, populations and
/// IID/non-IID splits, for FedSGD and the line-up.
///
/// Paper reference, FedSGD/FedADMM/FedAvg/FedProx/SCAFFOLD (rounds to
/// target; 100+ = not reached):
///   MNIST m=100:   IID 297/10/19/29/27       nIID 250/33/77/100+/76
///   MNIST m=1000:  IID 201/8/61/78/61        nIID 269/13/73/100+/84
///   FMNIST m=1000: IID 390/3/10/14/12        nIID 530/7/33/61/40
///   CIFAR m=1000:  IID 186/7/24/32/37        nIID 202/9/50/68/100+
void Table3() {
  const int budget = RoundBudget(40, 120);
  const int seeds = SeedCount();
  const std::pair<TaskKind, int> settings[] = {
      {TaskKind::kMnistLike, 100},
      {TaskKind::kMnistLike, LargeScale() ? 300 : 200},
      {TaskKind::kFmnistLike, LargeScale() ? 300 : 200},
      {TaskKind::kCifarLike, LargeScale() ? 300 : 200},
  };

  std::printf("%-10s %-8s %-6s %-8s %-8s %-8s %-8s %-9s %-10s\n", "task", "m",
              "split", "FedSGD", "FedADMM", "FedAvg", "FedProx", "SCAFFOLD",
              "reduction");
  for (const auto& [task, clients] : settings) {
    for (bool iid : {true, false}) {
      const double target = TaskTarget(task);
      // Censored rounds summed over seeds: FedSGD, then the line-up.
      std::vector<int> totals(5, 0);
      for (int s = 0; s < seeds; ++s) {
        Scenario scenario = MakeScenario(task, clients, iid, 1 + s);
        const uint64_t seed = 11 + static_cast<uint64_t>(s);
        FedSgd fedsgd(0.1f);
        totals[0] += RoundsToTarget(&scenario, &fedsgd, budget, target, seed);
        std::vector<Method> methods = LineUp();
        for (size_t k = 0; k < methods.size(); ++k) {
          totals[k + 1] += RoundsToTarget(&scenario, methods[k].algo.get(),
                                          budget, target, seed);
        }
      }
      std::vector<double> mean;
      for (int total : totals) {
        mean.push_back(static_cast<double>(total) / seeds);
      }
      std::printf("%-10s %-8d %-6s", TaskName(task), clients,
                  iid ? "IID" : "nIID");
      const int widths[] = {8, 8, 8, 8, 9};
      for (size_t k = 0; k < mean.size(); ++k) {
        char cell[16];
        if (mean[k] > budget) {
          std::snprintf(cell, sizeof(cell), "%d+", budget);
        } else {
          std::snprintf(cell, sizeof(cell), "%.0f", mean[k]);
        }
        std::printf(" %-*s", widths[k], cell);
      }
      const double best_baseline =
          std::min({mean[0], mean[2], mean[3], mean[4]});
      std::printf(" %s\n",
                  FormatReduction(mean[1], best_baseline, budget).c_str());
    }
  }

  std::printf(
      "\npaper shape: FedADMM fastest everywhere (47-87%% reduction vs the\n"
      "best baseline), gap largest for non-IID and large m; FedSGD slowest.\n");
}

/// Table IV and Fig. 7: the local epoch budget E. More local work per round
/// means fewer rounds to the target (the strongly convex subproblems are
/// solved more exactly, i.e. a smaller attained ε_i in Eq. (6)).
///
/// Paper reference (rounds to target): MNIST IID 27/10/6 and non-IID
/// 56/33/32 for E = 1/5/10; CIFAR-10 IID 24/12/10, non-IID 30/14/11.
void Table4() {
  const int budget = RoundBudget(40, 120);

  std::printf("%-10s %-8s %-8s %-10s %-10s\n", "task", "split", "E", "rounds",
              "final acc");
  for (TaskKind task : {TaskKind::kMnistLike, TaskKind::kCifarLike}) {
    for (bool iid : {true, false}) {
      Scenario scenario = MakeScenario(task, 100, iid, 6);
      const double target = TaskTarget(task);
      for (int epochs : {1, 5, 10}) {
        FedAdmmOptions options = BenchAdmmOptions(kBenchRho, epochs);
        // Fixed epochs isolate the E effect (Table IV varies E directly).
        options.local.variable_epochs = false;
        FedAdmm algo(options);
        // The full budget runs: the final accuracy is reported too.
        const History h = RunScenario(&scenario, &algo, 0.1, budget, 61);
        std::printf("%-10s %-8s %-8d %-10s %-10.3f\n", TaskName(task),
                    iid ? "IID" : "nIID", epochs,
                    FormatRounds(h.RoundsToAccuracy(target), budget).c_str(),
                    h.FinalAccuracy());
      }
    }
  }

  std::printf(
      "\npaper shape (Table IV): rounds decrease monotonically as E grows\n"
      "(27->10->6 on MNIST IID), with convergence always maintained at a\n"
      "fixed learning rate (Fig. 7).\n");
}

/// Table V: FedProx's sensitivity to its proximal coefficient ρ against
/// FedADMM at one fixed ρ. The paper shows FedProx's best ρ changes across
/// datasets and populations (non-monotonically), while FedADMM with a
/// constant ρ dominates every tested FedProx.
void Table5() {
  const int budget = RoundBudget(40, 100);
  const std::vector<int> populations =
      LargeScale() ? std::vector<int>{200, 500} : std::vector<int>{100, 200};

  for (TaskKind task : {TaskKind::kMnistLike, TaskKind::kFmnistLike}) {
    const double target = TaskTarget(task);
    std::printf("\n%s (target %.0f%%)\n", TaskName(task), target * 100);
    std::printf("%-26s", "method (rho)");
    for (int m : populations) {
      std::printf(" m=%-4d IID  m=%-4d nIID", m, m);
    }
    std::printf("\n");

    auto print_row = [&](const std::string& name, const auto& make_algo) {
      std::printf("%-26s", name.c_str());
      for (int m : populations) {
        for (bool iid : {true, false}) {
          Scenario scenario = MakeScenario(task, m, iid, 8);
          const std::unique_ptr<FederatedAlgorithm> algo = make_algo();
          const int r =
              RoundsToTarget(&scenario, algo.get(), budget, target, 81);
          std::printf(" %-11s", FormatCensored(r, budget).c_str());
        }
      }
      std::printf("\n");
    };
    print_row(("FedADMM (" + std::to_string(kBenchRho) + ")").substr(0, 25),
              [] { return std::make_unique<FedAdmm>(BenchAdmmOptions()); });
    for (float rho : {0.01f, 0.1f, 1.0f}) {
      char name[64];
      std::snprintf(name, sizeof(name), "FedProx (%.2f)", rho);
      print_row(name, [rho] {
        LocalTrainSpec local = BenchLocalSpec();
        local.variable_epochs = true;
        return std::make_unique<FedProx>(local, rho);
      });
    }
  }

  std::printf(
      "\npaper shape: FedProx's performance varies drastically and\n"
      "non-monotonically with ρ (its best ρ differs across datasets and\n"
      "populations), while a single fixed-ρ FedADMM stays consistent.\n");
}

/// Table VI and Fig. 10: imbalanced data volumes. Clients are split into
/// groups; each member of group g holds g label-sorted shards (the last
/// group collects the remainder), a heavy-tailed size distribution (paper:
/// mean 300, stdev ≈ 171 at 200 clients / 10,000 shards). The line-up then
/// trains on the imbalanced federation.
void Table6() {
  const int rounds = RoundBudget(36, 100);
  // The group scheme needs ~m²/4 shards (member of group g holds g shards),
  // so the client count is kept moderate and per-client volume raised at
  // large scale.
  const int clients = LargeScale() ? 100 : 40;
  const int samples_per_client = LargeScale() ? 60 : 24;

  std::printf("\nTable VI — imbalanced partition statistics:\n");
  std::printf("%-10s %-8s %-9s %-8s %-8s\n", "task", "clients", "samples",
              "mean", "stdev");
  for (TaskKind task : {TaskKind::kFmnistLike, TaskKind::kCifarLike}) {
    Scenario scenario =
        MakeScenario(task, clients, /*iid=*/false, 10, samples_per_client);
    Rng rng(17);
    // Minimum shards the group scheme requires, plus headroom so the last
    // group genuinely "collects the remainder".
    const int groups = clients / 2;
    const int needed = groups * (groups - 1) + 2;
    const int total_shards =
        std::min(scenario.split->train.size(),
                 std::max(needed + clients, clients * 8));
    scenario.partition = PartitionImbalancedGroups(
                             scenario.split->train.labels(), clients,
                             total_shards, &rng)
                             .ValueOrDie();
    scenario.problem = std::make_unique<NnFederatedProblem>(
        scenario.model, &scenario.split->train, &scenario.split->test,
        scenario.partition, 8);
    const PartitionStats stats =
        ComputePartitionStats(scenario.partition,
                              scenario.split->train.labels());
    std::printf("%-10s %-8d %-9d %-8.1f %-8.1f\n", TaskName(task),
                stats.num_clients, stats.total_samples, stats.mean_size,
                stats.stddev_size);

    std::printf("\nFig. 10 — %s (accuracy per round):\n", TaskName(task));
    PrintSeries(LineUpSeries(&scenario, rounds, 101), rounds, 10);
    std::printf("\n");
  }

  std::printf(
      "paper reference (Table VI, full scale): FMNIST 200 clients / 60,000\n"
      "samples -> mean 300, stdev 171.03; CIFAR-10 -> mean 250, stdev\n"
      "142.52. Those exact statistics are asserted by the partition tests.\n"
      "paper shape (Fig. 10): FedADMM reaches the highest accuracy on the\n"
      "imbalanced federations, with the largest margin on CIFAR-10.\n");
}

/// Populations of Figs. 3 and 4.
std::vector<int> ScalePopulations() {
  return LargeScale() ? std::vector<int>{100, 300, 1000}
                      : std::vector<int>{50, 100, 200};
}

/// Fig. 3: convergence paths as the client population grows, with
/// hyperparameters tuned once at the smallest scale and then held fixed.
/// The paper finds FedADMM's gap over the baselines widens with the
/// population (same data volume per round, more dual variables guiding it).
void Fig3() {
  const int rounds = RoundBudget(30, 80);
  for (TaskKind task : {TaskKind::kFmnistLike, TaskKind::kCifarLike}) {
    // Fig. 3 uses FMNIST non-IID and CIFAR IID.
    const bool iid = task == TaskKind::kCifarLike;
    for (int m : ScalePopulations()) {
      Scenario scenario = MakeScenario(task, m, iid, 2);
      std::printf("\n%s, %s, m=%d (accuracy per round)\n", TaskName(task),
                  iid ? "IID" : "non-IID", m);
      PrintSeries(LineUpSeries(&scenario, rounds, 21), rounds, 10);
    }
  }

  std::printf(
      "\npaper shape: all methods slow down as m grows (same per-round data\n"
      "volume spread thinner), and FedADMM's lead widens with m.\n");
}

/// Fig. 4: rounds to a target accuracy as the population grows (Fig. 3's
/// data distributions reversed), with FedADMM's reduction over the best
/// baseline at each scale.
void Fig4() {
  const int budget = RoundBudget(40, 120);
  for (TaskKind task : {TaskKind::kFmnistLike, TaskKind::kCifarLike}) {
    // Reversed settings relative to Fig. 3: FMNIST IID, CIFAR non-IID.
    const bool iid = task == TaskKind::kFmnistLike;
    const double target = TaskTarget(task);
    std::printf("\n%s, %s, target %.0f%%\n", TaskName(task),
                iid ? "IID" : "non-IID", target * 100);
    std::printf("%-8s %-9s %-9s %-9s %-9s %-10s\n", "m", "FedADMM", "FedAvg",
                "FedProx", "SCAFFOLD", "reduction");
    for (int m : ScalePopulations()) {
      Scenario scenario = MakeScenario(task, m, iid, 3);
      std::printf("%-8d", m);
      std::vector<int> rounds;
      for (Method& method : LineUp()) {
        rounds.push_back(
            RoundsToTarget(&scenario, method.algo.get(), budget, target, 31));
        std::printf(" %-9s", FormatCensored(rounds.back(), budget).c_str());
      }
      const int best_baseline = std::min({rounds[1], rounds[2], rounds[3]});
      std::printf(" %s\n",
                  FormatReduction(rounds[0], best_baseline, budget).c_str());
    }
  }

  std::printf(
      "\npaper shape: rounds grow with m for every method; FedADMM grows\n"
      "slowest, so its reduction percentage increases with scale.\n");
}

/// Fig. 5: adaptability to heterogeneous data. FedADMM runs ONE fixed
/// configuration across the IID and non-IID settings, while each baseline
/// picks its best configuration per setting from a small grid; FedADMM
/// should stay competitive without tuning (the paper: it beats them all).
void Fig5() {
  const int budget = RoundBudget(40, 100);
  const int clients = LargeScale() ? 200 : 100;

  for (TaskKind task : {TaskKind::kFmnistLike, TaskKind::kCifarLike}) {
    const double target = TaskTarget(task);
    std::printf("\n%s, m=%d, target %.0f%% (rounds; lower is better)\n",
                TaskName(task), clients, target * 100);
    std::printf("%-10s %-22s %-22s\n", "split", "FedADMM (fixed config)",
                "best tuned baseline");
    for (bool iid : {true, false}) {
      Scenario scenario = MakeScenario(task, clients, iid, 4);

      // FedADMM: one fixed configuration for both settings.
      FedAdmm admm(BenchAdmmOptions());
      const int r_admm = RoundsToTarget(&scenario, &admm, budget, target, 41);

      // Baselines: grid over learning rate (and rho for FedProx); keep the
      // best result per setting.
      int best_baseline = budget + 1;
      std::string best_name = "none";
      auto consider = [&](FederatedAlgorithm* algo, const std::string& name) {
        const int r = RoundsToTarget(&scenario, algo, budget, target, 41);
        if (r < best_baseline) {
          best_baseline = r;
          best_name = name;
        }
      };
      for (float lr : {0.05f, 0.1f, 0.2f}) {
        {
          FedAvg algo(BenchLocalSpec(10, 5, lr));
          consider(&algo, "FedAvg(lr=" + std::to_string(lr) + ")");
        }
        for (float rho : {0.01f, 0.1f, 1.0f}) {
          LocalTrainSpec local = BenchLocalSpec(10, 5, lr);
          local.variable_epochs = true;
          FedProx algo(local, rho);
          consider(&algo, "FedProx(lr=" + std::to_string(lr) +
                              ",rho=" + std::to_string(rho) + ")");
        }
        {
          Scaffold algo(BenchLocalSpec(10, 5, lr));
          consider(&algo, "SCAFFOLD(lr=" + std::to_string(lr) + ")");
        }
      }
      std::printf("%-10s %-22s %s -> %s\n", iid ? "IID" : "non-IID",
                  FormatCensored(r_admm, budget).c_str(),
                  FormatCensored(best_baseline, budget).c_str(),
                  best_name.c_str());
    }
  }

  std::printf(
      "\npaper shape: FedADMM with a single fixed configuration is\n"
      "competitive with (in the paper: beats) every per-setting tuned\n"
      "baseline in both IID and non-IID regimes.\n");
}

/// Fig. 6: the server gathering step size η, in IID and non-IID settings,
/// plus the mid-run decrease (η lowered after a switch round improves
/// late-stage accuracy).
void Fig6() {
  const int rounds = RoundBudget(36, 100);
  const int switch_round = rounds * 3 / 5;  // paper switches at round 60/100
  std::vector<AdmmVariant> variants;
  for (double eta : {0.5, 1.0, 1.5}) {
    FedAdmmOptions options = BenchAdmmOptions();
    options.eta = StepSchedule(eta);
    char label[16];
    std::snprintf(label, sizeof(label), "eta=%.1f", eta);
    variants.push_back({label, 9, options});
  }
  FedAdmmOptions decayed = BenchAdmmOptions();
  decayed.eta = StepSchedule(1.0);
  decayed.eta.AddSwitch(switch_round, 0.5);
  variants.push_back({"1.0->0.5@" + std::to_string(switch_round), 14, decayed});

  for (bool iid : {true, false}) {
    Scenario scenario = MakeScenario(TaskKind::kFmnistLike, 100, iid, 5);
    std::printf("\n%s (accuracy per round)\n", iid ? "IID" : "non-IID");
    PrintAdmmSeries(&scenario, variants, rounds, 51);
  }

  std::printf(
      "\npaper shape: under IID all η behave similarly (η=0.5 slightly\n"
      "slower at the start); under non-IID η=1.5 stalls/oscillates while\n"
      "η=1.0 is consistent, and decreasing η mid-run improves the tail.\n");
}

/// Fig. 8: local initialization. Strategy I warm-starts local SGD from the
/// stored client model w_i; strategy II restarts from the downloaded global
/// model θ. The paper finds I superior across server step sizes.
void Fig8() {
  const int rounds = RoundBudget(36, 100);
  for (double eta : {0.5, 1.0}) {
    Scenario scenario =
        MakeScenario(TaskKind::kFmnistLike, 100, /*iid=*/false, 7);
    std::printf("\nη = %.1f, non-IID (accuracy per round)\n", eta);
    FedAdmmOptions warm = BenchAdmmOptions();
    warm.init = FedAdmmOptions::LocalInit::kClientModel;
    warm.eta = StepSchedule(eta);
    FedAdmmOptions cold = warm;
    cold.init = FedAdmmOptions::LocalInit::kGlobalModel;
    PrintAdmmSeries(&scenario,
                    {{"I (warm w_i)", 14, warm}, {"II (global θ)", 14, cold}},
                    rounds, 71);
  }

  std::printf(
      "\npaper shape: warm-starting from the stored client model (I) yields\n"
      "superior accuracy trajectories across server step sizes.\n");
}

/// Fig. 9: static and dynamic proximal coefficients ρ — small ρ early
/// (local data is incorporated efficiently while the global model is
/// uninformed), larger ρ later (the client-server discrepancy shrinks).
void Fig9() {
  const int rounds = RoundBudget(36, 100);
  const float low = kBenchRho * 0.5f;
  const float high = kBenchRho * 2.0f;
  std::vector<AdmmVariant> variants;
  for (float rho : {low, high}) {
    FedAdmmOptions options = BenchAdmmOptions();
    options.rho = StepSchedule(rho);
    variants.push_back(
        {("rho=" + std::to_string(rho)).substr(0, 10), 12, options});
  }
  FedAdmmOptions dynamic = BenchAdmmOptions();
  dynamic.rho = StepSchedule(low);
  dynamic.rho.AddSwitch(rounds / 2, high);
  variants.push_back({"low->high@switch", 16, dynamic});

  for (bool iid : {true, false}) {
    Scenario scenario = MakeScenario(TaskKind::kFmnistLike, 100, iid, 9);
    std::printf("\n%s (accuracy per round)\n", iid ? "IID" : "non-IID");
    PrintAdmmSeries(&scenario, variants, rounds, 91);
  }

  std::printf(
      "\npaper shape: smaller ρ is faster early, larger ρ steadier late;\n"
      "switching low->high mid-run combines both advantages.\n");
}

/// Not a paper table: the decomposition the paper argues for in Sections
/// III-A/III-B, on the convex federation where ‖θ − θ*‖ is exact (free of
/// evaluation noise). Live vs frozen duals (freezing reduces the local
/// problem to FedProx's), warm start vs global restart (Fig. 8's knob),
/// η = |S|/m vs 1, and minimal local work.
void Ablation() {
  const int rounds = RoundBudget(300, 800);
  std::printf("%-40s %-14s %-16s\n", "variant", "rounds to 0.1",
              "final distance");

  struct Case {
    const char* name;
    FedAdmmOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({"FedADMM (full)", QuadAdmmOptions(true)});
  {
    FedAdmmOptions o = QuadAdmmOptions(true);
    o.freeze_duals = true;
    cases.push_back({"duals frozen (≈FedProx local problem)", o});
  }
  {
    FedAdmmOptions o = QuadAdmmOptions(true);
    o.init = FedAdmmOptions::LocalInit::kGlobalModel;
    cases.push_back({"global-restart init (Fig. 8 II)", o});
  }
  {
    FedAdmmOptions o = QuadAdmmOptions(true);
    o.eta_active_fraction = false;
    o.eta = StepSchedule(1.0);
    cases.push_back({"eta = 1 (vs |S|/m)", o});
  }
  {
    FedAdmmOptions o = QuadAdmmOptions(true);
    o.local.variable_epochs = false;
    o.local.max_epochs = 1;
    cases.push_back({"E = 1 (minimal local work)", o});
  }

  for (const Case& c : cases) {
    FedAdmm algo(c.options);
    const QuadOutcome out = RunQuadratic(
        QuadSpec(2.5, 123), &algo, 0.25, rounds, 9, 0.1,
        [](const QuadraticProblem& problem, std::span<const float> theta) {
          return problem.DistanceToOptimum(theta);
        });
    std::printf("%-40s %-14s %-16.4f\n", c.name,
                FormatRounds(out.rounds_to_threshold, rounds).c_str(),
                out.final_metric);
  }

  std::printf(
      "\nreading: freezing the duals leaves a persistent bias (FedProx-like\n"
      "plateau above the optimum); live duals drive the distance toward 0.\n"
      "η=1 trades stability margin for speed; E=1 converges but slowly\n"
      "(Table IV's mechanism).\n");
}

/// One paper table or figure: its id on the command line, the header it
/// prints, and the function that measures and prints its body.
struct Row {
  const char* id;
  const char* title;
  void (*run)();
};

const Row kRows[] = {
    {"table1",
     "Table I (empirical) — rounds to an ε-stationary solution on convex "
     "federated quadratics",
     Table1},
    {"table2",
     "Table II — Experimental setup: models, parameter counts, targets",
     Table2},
    {"table3",
     "Table III — communication rounds to target accuracy (per-task targets; "
     "'+' = not reached)",
     Table3},
    {"table4", "Table IV / Fig. 7 — effect of local epoch count E on FedADMM",
     Table4},
    {"table5",
     "Table V — rounds to target: FedADMM (fixed ρ) vs FedProx (ρ sweep)",
     Table5},
    {"table6", "Table VI + Fig. 10 — imbalanced data volumes", Table6},
    {"fig3", "Fig. 3 — convergence paths vs system scale (fixed hyperparams)",
     Fig3},
    {"fig4", "Fig. 4 — rounds to target accuracy vs client population", Fig4},
    {"fig5",
     "Fig. 5 — adaptability to data heterogeneity (FedADMM untuned vs "
     "baselines tuned per setting)",
     Fig5},
    {"fig6", "Fig. 6 — FedADMM under different server step sizes η", Fig6},
    {"fig8",
     "Fig. 8 — local initialization: I = warm start from w_i, II = restart "
     "from θ",
     Fig8},
    {"fig9", "Fig. 9 — FedADMM under static and dynamic ρ schedules", Fig9},
    {"ablation",
     "Ablation — what each FedADMM design choice contributes (convex "
     "federation, ||θ−θ*|| exact)",
     Ablation},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> selected;
  for (int i = 1; i < argc; ++i) {
    const Row* found = nullptr;
    for (const Row& row : kRows) {
      if (std::strcmp(argv[i], row.id) == 0) found = &row;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown row '%s'; valid rows:\n",
                   argv[i]);
      for (const Row& row : kRows) {
        std::fprintf(stderr, "  %-9s %s\n", row.id, row.title);
      }
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Row& row : kRows) selected.push_back(&row);
  }
  for (const Row* row : selected) {
    PrintHeader(row->title);
    row->run();
    PrintFootnote();
  }
  return 0;
}
