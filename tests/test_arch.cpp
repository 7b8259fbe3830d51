// Tests for the `arch` accelerator abstraction: the tagged Workload type,
// the TRON/GHOST adapters, the spec registry, and — most importantly — parity
// pins proving the refactored estimate and serve paths are bit-identical to
// the pre-refactor concrete-type code: adapters vs `tron::TronAccelerator` /
// `ghost::GhostAccelerator` PerfReports, and `serve::simulate` vs an
// independent re-implementation of the original event loop written directly
// against the concrete accelerators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform_adapter.hpp"
#include "arch/registry.hpp"
#include "baselines/platforms.hpp"
#include "common/error.hpp"
#include "perf_report_matchers.hpp"
#include "serve/campaign.hpp"
#include "serve/simulator.hpp"
#include "sim/figures.hpp"
#include "sim/registry.hpp"

namespace lumos::arch {
namespace {

using lumos::testing::expect_reports_identical;

// serve::Scenario over an explicit pre-materialised trace.
serve::FleetMetrics simulate_trace(serve::FleetConfig fleet, serve::WorkloadCatalog catalog,
                                   std::vector<serve::Request> trace,
                                   serve::SchedulerKind scheduler,
                                   const serve::BatchPolicy& policy,
                                   const serve::SimConfig& sim = {}) {
  serve::Scenario scenario;
  scenario.fleet = std::move(fleet);
  scenario.catalog = std::move(catalog);
  scenario.scheduler = scheduler;
  scenario.batch = policy;
  scenario.sim = sim;
  scenario.trace = std::move(trace);
  return serve::simulate(scenario);
}

// ---------------------------------------------------------------------------
// Workload tagged union
// ---------------------------------------------------------------------------

TEST(Workload, TransformerAccessorsAndKind) {
  const Workload w = Workload::transformer("bert", sim::transformer_by_name("bert-base"));
  EXPECT_EQ(w.kind(), WorkloadKind::kTransformer);
  EXPECT_EQ(w.name(), "bert");
  EXPECT_EQ(w.transformer_config().name, sim::transformer_by_name("bert-base").name);
  EXPECT_THROW((void)w.gnn_model(), InvalidArgument);
  EXPECT_THROW((void)w.dataset(), InvalidArgument);
}

TEST(Workload, GnnAccessorsAndKind) {
  const Workload w =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  EXPECT_EQ(w.kind(), WorkloadKind::kGnn);
  EXPECT_EQ(w.dataset().name, sim::dataset_by_name("cora").name);
  EXPECT_THROW((void)w.transformer_config(), InvalidArgument);
}

TEST(Workload, WrongKindErrorNamesWorkloadAndKind) {
  const Workload w = Workload::transformer("vit", sim::transformer_by_name("vit"));
  try {
    (void)w.gnn_model();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vit"), std::string::npos) << what;
    EXPECT_NE(what.find("transformer"), std::string::npos) << what;
  }
}

TEST(Workload, CopiesShareTheDataset) {
  const Workload a =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  const Workload b = a;
  EXPECT_EQ(&a.dataset(), &b.dataset());
}

// ---------------------------------------------------------------------------
// Adapters: bit-identical delegation + kind gating
// ---------------------------------------------------------------------------

TEST(Adapters, TronEstimatesBitIdenticalToConcreteAccelerator) {
  const tron::TronConfig config = tron::default_tron_config();
  const TronAdapter adapter(config);
  const tron::TronAccelerator concrete(config);
  for (const char* name : {"bert-base", "gpt2"}) {
    const nn::TransformerConfig model = sim::transformer_by_name(name, 128);
    const Workload w = Workload::transformer(name, model);
    expect_reports_identical(adapter.estimate(w), concrete.estimate(model));
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      expect_reports_identical(adapter.estimate(w, batch), concrete.estimate(model, batch));
    }
  }
  EXPECT_EQ(adapter.static_power_w(), concrete.static_power_w());
}

TEST(Adapters, GhostEstimatesBitIdenticalToConcreteAccelerator) {
  const ghost::GhostConfig config = ghost::default_ghost_config();
  const GhostAdapter adapter(config);
  const ghost::GhostAccelerator concrete(config);
  const gnn::GnnModelConfig model = sim::gnn_by_name("graphsage");
  const Workload w = Workload::gnn("graphsage/citeseer", model,
                                   sim::dataset_by_name("citeseer"));
  expect_reports_identical(adapter.estimate(w), concrete.estimate(model, w.dataset()));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    expect_reports_identical(adapter.estimate(w, batch),
                             concrete.estimate(model, w.dataset(), batch));
  }
  EXPECT_EQ(adapter.static_power_w(), concrete.static_power_w());
}

TEST(Adapters, RefuseForeignWorkloadKindsNamingBothSides) {
  const TronAdapter tron_acc(tron::default_tron_config());
  const Workload gnn_w =
      Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora"));
  EXPECT_FALSE(tron_acc.can_serve(gnn_w));
  try {
    (void)tron_acc.estimate(gnn_w);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tron"), std::string::npos) << what;
    EXPECT_NE(what.find("gcn/cora"), std::string::npos) << what;
  }
}

TEST(Adapters, BreakdownEntriesCoverTheBreakdownFields) {
  const TronAdapter acc(tron::default_tron_config());
  const PerfReport r =
      acc.estimate(Workload::transformer("bert", sim::transformer_by_name("bert-base")));
  double time_sum = 0.0;
  double energy_sum = 0.0;
  for (const BreakdownEntry& e : breakdown_entries(r)) {
    time_sum += e.time_s;
    energy_sum += e.energy_j;
  }
  const PerfBreakdown& b = r.breakdown;
  EXPECT_DOUBLE_EQ(time_sum, b.matmul_time_s + b.softmax_time_s + b.elementwise_time_s +
                                 b.aggregation_time_s + b.memory_stall_s);
  EXPECT_DOUBLE_EQ(energy_sum,
                   b.laser_dac_adc_energy_j + b.partial_sum_energy_j + b.softmax_energy_j +
                       b.elementwise_energy_j + b.aggregation_energy_j + b.sram_energy_j +
                       b.dram_energy_j);
}

// ---------------------------------------------------------------------------
// Generation: the sum of batch-1 decode steps on every accelerator
// ---------------------------------------------------------------------------

// The field-wise sum of the batch-1 decode steps at contexts `prompt` ..
// `prompt + tokens - 1`, added in context order.
PerfReport summed_steps(const Accelerator& acc, const Workload& w, std::size_t prompt,
                        std::size_t tokens) {
  PerfReport sum;
  PerfBreakdown& b = sum.breakdown;
  for (std::size_t t = 0; t < tokens; ++t) {
    const PerfReport step = acc.estimate_decode_step(w, 1, prompt + t);
    const PerfBreakdown& s = step.breakdown;
    sum.static_power_w = step.static_power_w;
    sum.bits = step.bits;
    sum.latency_s += step.latency_s;
    sum.dynamic_energy_j += step.dynamic_energy_j;
    sum.static_energy_j += step.static_energy_j;
    sum.total_energy_j += step.total_energy_j;
    sum.op_count += step.op_count;
    b.matmul_time_s += s.matmul_time_s;
    b.softmax_time_s += s.softmax_time_s;
    b.elementwise_time_s += s.elementwise_time_s;
    b.aggregation_time_s += s.aggregation_time_s;
    b.memory_stall_s += s.memory_stall_s;
    b.laser_dac_adc_energy_j += s.laser_dac_adc_energy_j;
    b.partial_sum_energy_j += s.partial_sum_energy_j;
    b.softmax_energy_j += s.softmax_energy_j;
    b.elementwise_energy_j += s.elementwise_energy_j;
    b.aggregation_energy_j += s.aggregation_energy_j;
    b.sram_energy_j += s.sram_energy_j;
    b.dram_energy_j += s.dram_energy_j;
  }
  return sum;
}

// What the serving simulator schedules (one decode step per token) adds up
// to the generation estimate bit for bit, on TRON and on every electronic
// LLM baseline, at 64 tokens.
TEST(Generation, SumsTheBatchOneDecodeStepsBitForBit) {
  const Workload w = Workload::transformer("bert-base", sim::transformer_by_name("bert-base", 128));
  constexpr std::size_t kPrompt = 64;
  constexpr std::size_t kTokens = 64;
  std::vector<std::unique_ptr<Accelerator>> accs;
  accs.push_back(make_accelerator("tron"));
  accs.push_back(make_accelerator("tron-eco"));
  for (const baselines::PlatformModel& platform : baselines::llm_baselines()) {
    accs.push_back(std::make_unique<PlatformAdapter>(platform));
  }
  for (const std::unique_ptr<Accelerator>& acc : accs) {
    SCOPED_TRACE(acc->spec().name);
    ASSERT_TRUE(acc->can_generate());
    const PerfReport generation = acc->estimate_generation(w, kPrompt, kTokens);
    expect_reports_identical(generation, summed_steps(*acc, w, kPrompt, kTokens));
    EXPECT_EQ(generation.workload, "bert-base (generate 64)");
  }
  const auto tron = make_accelerator("tron");
  EXPECT_THROW((void)tron->estimate_generation(w, 0, 8), InvalidArgument);
  EXPECT_THROW((void)tron->estimate_generation(w, 8, 0), InvalidArgument);
  const auto ghost = make_accelerator("ghost");
  EXPECT_THROW((void)ghost->estimate_generation(
                   Workload::gnn("gcn/cora", sim::gnn_by_name("gcn"), sim::dataset_by_name("cora")),
                   kPrompt, kTokens),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Pinned bits of the TRON and roofline estimates
// ---------------------------------------------------------------------------

// Hex-float latency and total energy: TRON and tron-eco full passes on an
// encoder, a decoder-only model and the seq2seq decoder-stack path; TRON
// decode steps at two contexts; and the roofline on one transformer and one
// GNN workload, for a compute-bound platform (V100) and one memory-bound on
// both (FPGA_Acc2).  Each at batch 1 and at a larger batch.  Recorded while
// TRON priced each estimate's layer stacks with its own copy of the weight
// overlap and the adapter priced roofline batches with its own formulas.
// Every row reads the same bits with and without FMA contraction (Release
// -march=native and Debug builds); some roofline points do not, such as
// FPGA_Acc2 on GCN/Cora at batch 4, whose energy moves by one ULP.  Every
// multiply-add that a compiler may fuse on these paths sits inside one
// expression (or multiplies exactly), so a compiler that fuses only within
// an expression reads the bits of one that fuses across statements.
TEST(PinnedBits, TronAndRooflineEstimates) {
  const struct Pin {
    const char* spec;
    const char* workload;
    std::size_t batch;
    std::size_t context;  // 0: a full-pass estimate; else one decode step
    double latency_s;
    double total_energy_j;
  } pins[] = {
      {"tron", "bert-base/128", 1, 0, 0x1.5e8f57765e812p-13, 0x1.409cceeb5cba6p-6},
      {"tron", "bert-base/128", 8, 0, 0x1.f62571e5b1b14p-12, 0x1.0065c19d79538p-3},
      {"tron", "gpt2/256", 1, 0, 0x1.5e8f57765e812p-13, 0x1.1d8613488066p-5},
      {"tron", "gpt2/256", 8, 0, 0x1.49dad0acbc724p-10, 0x1.083881851f4a4p-2},
      {"tron", "transformer", 1, 0, 0x1.6e0fe434d98cbp-14, 0x1.5383a410c4ae8p-7},
      {"tron", "transformer", 8, 0, 0x1.645d4aff6fc6cp-12, 0x1.15ac65cfd7e6p-4},
      {"tron-eco", "bert-base/128", 1, 0, 0x1.5e8f57765e812p-13, 0x1.33e79cb578a99p-6},
      {"tron-eco", "bert-base/128", 8, 0, 0x1.6afcf2303df34p-11, 0x1.ff81f2c7476cep-4},
      {"tron-eco", "gpt2/256", 1, 0, 0x1.bb3ee37335098p-13, 0x1.1a67d21c7adf4p-5},
      {"tron-eco", "gpt2/256", 8, 0, 0x1.bb3dc2d4069a1p-10, 0x1.0633542818c6p-2},
      {"tron-eco", "transformer", 1, 0, 0x1.6e0fe434d98cbp-14, 0x1.463e95b68850cp-7},
      {"tron-eco", "transformer", 8, 0, 0x1.d155bff26b396p-12, 0x1.1304bfdff5927p-4},
      {"tron", "gpt2/256", 1, 128, 0x1.5e8f57765e812p-13, 0x1.549845f37b227p-8},
      {"tron", "gpt2/256", 8, 128, 0x1.5e8f57765e812p-13, 0x1.888212fdbb2f6p-8},
      {"tron", "gpt2/256", 1, 1024, 0x1.5e8f57765e812p-13, 0x1.580ba926d1bc1p-8},
      {"tron", "gpt2/256", 8, 1024, 0x1.5e8f57765e812p-13, 0x1.95f23cb822ec1p-8},
      {"v100", "bert-base/4", 1, 0, 0x1.ddd429447572fp-12, 0x1.4056ee2f2b4cbp-4},
      {"v100", "bert-base/4", 4, 0, 0x1.e3cc5e00ee2ccp-11, 0x1.bf24a5128ff16p-3},
      {"v100", "gcn/pubmed", 1, 0, 0x1.6182dcf4a8b85p-9, 0x1.267681d82e8dp-1},
      {"v100", "gcn/pubmed", 4, 0, 0x1.d717bfa553141p-8, 0x1.ec28680a79c61p+0},
      {"fpga-acc2", "bert-base/4", 1, 0, 0x1.9c981843cb8fep-10, 0x1.1533ed5ff3381p-4},
      {"fpga-acc2", "bert-base/4", 4, 0, 0x1.9e9a26f48a489p-10, 0x1.169d5fb43951fp-4},
      {"fpga-acc2", "gcn/pubmed", 1, 0, 0x1.579e1e6a79753p-9, 0x1.c96853664afa9p-4},
      {"fpga-acc2", "gcn/pubmed", 4, 0, 0x1.43ec2fb038893p-7, 0x1.c110a137f38c6p-2},
  };
  const Workload workloads[] = {
      Workload::transformer("bert-base/128", sim::transformer_by_name("bert-base", 128)),
      Workload::transformer("gpt2/256", sim::transformer_by_name("gpt2", 256)),
      Workload::transformer("transformer", nn::original_transformer()),
      Workload::transformer("bert-base/4", sim::transformer_by_name("bert-base", 4)),
      Workload::gnn("gcn/pubmed", sim::gnn_by_name("gcn"), sim::dataset_by_name("pubmed")),
  };
  for (const Pin& pin : pins) {
    const Workload* w = std::find_if(std::begin(workloads), std::end(workloads),
                                     [&](const Workload& x) { return x.name() == pin.workload; });
    ASSERT_NE(w, std::end(workloads)) << pin.workload;
    SCOPED_TRACE(std::string(pin.spec) + " " + pin.workload + " batch " +
                 std::to_string(pin.batch) + " context " + std::to_string(pin.context));
    const auto acc = make_accelerator(pin.spec);
    const PerfReport r = pin.context == 0 ? acc->estimate(*w, pin.batch)
                                          : acc->estimate_decode_step(*w, pin.batch, pin.context);
    EXPECT_EQ(r.latency_s, pin.latency_s);
    EXPECT_EQ(r.total_energy_j, pin.total_energy_j);
  }
}

// Hex-float pins of every breakdown field of TRON full passes (an encoder, a
// decoder-only model and the seq2seq path at several batches, on tron,
// tron-eco and tron@0.5) and decode steps.  Each row reads the same bits with
// the cost models built with and without FMA contraction (Release and Debug
// builds), unlike, for example, tron on `original_transformer` at batch 3.
// The seq2seq rows add a second layer stack to a non-zero breakdown, where
// `PerfBreakdown::add` rounding its product apart from its sum moves a last
// bit.
TEST(PinnedBits, TronBreakdowns) {
  const struct Pin {
    const char* spec;
    const char* workload;
    std::size_t batch;
    std::size_t context;  // 0: a full-pass estimate; else one decode step
    PerfBreakdown breakdown;
  } pins[] = {
      {"tron", "bert-base/128", 2, 0,
       {0x1.bfb0a01489af2p-15, 0x1.353cd652bb167p-15, 0x1.eec7bd512b572p-16, 0x0p+0,
        0x1.8dec08c99f934p-15, 0x1.d9d2dd544bd1p-6, 0x1.1ef8f80b3cfa3p-14, 0x1.bb52b5ea850a9p-19,
        0x1.4442592c440d9p-16, 0x0p+0, 0x1.feac2dc802bdp-14, 0x1.5b7c89ba6f822p-9}},
      {"tron", "gpt2/256", 3, 0,
       {0x1.542be5dcca383p-13, 0x1.cfdb417c18a1ap-13, 0x1.7315cdfce0816p-14, 0x0p+0, 0x0p+0,
        0x1.6c451d7a837ap-4, 0x1.b8d964545a959p-13, 0x1.4c7e086fe3c7ep-16, 0x1.e66385c266146p-15,
        0x0p+0, 0x1.feac2dc802bdp-13, 0x1.5b7c89ba6f822p-9}},
      {"tron", "gpt2/256", 8, 0,
       {0x1.c58db764e5f0ap-12, 0x1.353cd652bb167p-11, 0x1.eec7bd512b572p-13, 0x0p+0, 0x0p+0,
        0x1.e56144394a59cp-3, 0x1.25e642e2e70e6p-11, 0x1.bb52b5ea850a9p-15, 0x1.4442592c440d9p-13,
        0x0p+0, 0x1.122c2d901aa68p-11, 0x1.5b7c89ba6f822p-9}},
      {"tron", "transformer", 1, 0,
       {0x1.b42767e28d348p-17, 0x1.353cd652bb168p-16, 0x1.7315cdfce0816p-17, 0x0p+0,
        0x1.77b20fc87a20bp-15, 0x1.f993101f91a95p-8, 0x1.2d27ff01c9fefp-16, 0x1.bb52b5ea850a8p-20,
        0x1.e66385c266146p-18, 0x0p+0, 0x1.f64d0742a22b4p-15, 0x1.68738617cc686p-10}},
      {"tron", "transformer", 6, 0,
       {0x1.46ef2b302a4b4p-14, 0x1.cfdb417c18a1bp-14, 0x1.16505a7da861p-14, 0x0p+0, 0x0p+0,
        0x1.793c1626aa913p-5, 0x1.c3bbfe82aefe6p-14, 0x1.4c7e086fe3c7fp-17, 0x1.6ccaa451cc8f4p-15,
        0x0p+0, 0x1.55d7fa463c965p-13, 0x1.68738617cc686p-10}},
      {"tron-eco", "transformer", 9, 0,
       {0x1.ea5f05a94a2c4p-13, 0x1.5be4711d12794p-13, 0x1.a17887bc7c918p-14, 0x0p+0, 0x0p+0,
        0x1.1ad427842630fp-4, 0x1.52ccfee2033ecp-13, 0x1.f2bd0ca7d5abdp-17, 0x1.1197fb3d596b7p-14,
        0x0p+0, 0x1.d79acf59956ap-13, 0x1.68738617cc686p-10}},
      {"tron@0.5", "transformer", 12, 0,
       {0x1.46ea563cd1006p-12, 0x1.cfdb417c18a1bp-13, 0x1.16505a7da861p-13, 0x0p+0, 0x0p+0,
        0x1.790a43f4f7195p-4, 0x1.c3bbfe82aefe6p-13, 0x1.4c7e086fe3c7fp-16, 0x1.6ccaa451cc8f4p-14,
        0x0p+0, 0x1.2caed236771edp-12, 0x1.68738617cc686p-10}},
      {"tron", "gpt2/256", 1, 128,
       {0x1.c58c6d8a67ba8p-23, 0x1.353cd652bb167p-23, 0x1.eec7bd512b572p-24, 0x0p+0,
        0x1.5d92cc2dbd13p-13, 0x1.a7a453dc2fa9p-13, 0x1.1ef8f80b3cfa3p-22, 0x1.bb52b5ea850a9p-27,
        0x1.4442592c440d9p-24, 0x0p+0, 0x1.36897ce3761fdp-14, 0x1.5b7c89ba6f822p-9}},
      {"tron", "gpt2/256", 2, 1024,
       {0x1.ec340854bf1d5p-22, 0x1.353cd652bb167p-19, 0x1.eec7bd512b572p-23, 0x0p+0,
        0x1.5848982994ea6p-13, 0x1.888ef51fd5b8ap-12, 0x1.4f7603f0e3876p-21, 0x1.bb52b5ea850a9p-23,
        0x1.4442592c440d9p-23, 0x0p+0, 0x1.73c14692c849ep-14, 0x1.5b7c89ba6f822p-9}},
      {"tron-eco", "bert-base/128", 3, 1024,
       {0x1.6fdd2bc159392p-20, 0x1.cfdb417c18a1ap-19, 0x1.7315cdfce0816p-22, 0x0p+0,
        0x1.53b6a531ecfbep-13, 0x1.0a8d842e12714p-11, 0x1.f73105e9554b1p-21, 0x1.4c7e086fe3c7ep-22,
        0x1.e66385c266146p-23, 0x0p+0, 0x1.75749a65dfe78p-14, 0x1.5b7c89ba6f822p-9}},
      {"tron", "vit", 2, 128,
       {0x1.c2f8b88dfb80bp-22, 0x1.353cd652bb167p-22, 0x1.eec7bd512b572p-23, 0x0p+0,
        0x1.5c978abf99dafp-13, 0x1.49e9261563fd2p-12, 0x1.1ef8f80b3cfa3p-21, 0x1.bb52b5ea850a9p-26,
        0x1.4442592c440d9p-23, 0x0p+0, 0x1.3752687ff72d6p-14, 0x1.5b7c89ba6f822p-9}},
  };
  const Workload workloads[] = {
      Workload::transformer("bert-base/128", sim::transformer_by_name("bert-base", 128)),
      Workload::transformer("gpt2/256", sim::transformer_by_name("gpt2", 256)),
      Workload::transformer("transformer", nn::original_transformer()),
      Workload::transformer("vit", sim::transformer_by_name("vit")),
  };
  for (const Pin& pin : pins) {
    const Workload* w = std::find_if(std::begin(workloads), std::end(workloads),
                                     [&](const Workload& x) { return x.name() == pin.workload; });
    ASSERT_NE(w, std::end(workloads)) << pin.workload;
    SCOPED_TRACE(std::string(pin.spec) + " " + pin.workload + " batch " +
                 std::to_string(pin.batch) + " context " + std::to_string(pin.context));
    const auto acc = make_accelerator(pin.spec);
    const PerfBreakdown b = pin.context == 0
                                ? acc->estimate(*w, pin.batch).breakdown
                                : acc->estimate_decode_step(*w, pin.batch, pin.context).breakdown;
    const PerfBreakdown& e = pin.breakdown;
    EXPECT_EQ(b.matmul_time_s, e.matmul_time_s);
    EXPECT_EQ(b.softmax_time_s, e.softmax_time_s);
    EXPECT_EQ(b.elementwise_time_s, e.elementwise_time_s);
    EXPECT_EQ(b.aggregation_time_s, e.aggregation_time_s);
    EXPECT_EQ(b.memory_stall_s, e.memory_stall_s);
    EXPECT_EQ(b.laser_dac_adc_energy_j, e.laser_dac_adc_energy_j);
    EXPECT_EQ(b.partial_sum_energy_j, e.partial_sum_energy_j);
    EXPECT_EQ(b.softmax_energy_j, e.softmax_energy_j);
    EXPECT_EQ(b.elementwise_energy_j, e.elementwise_energy_j);
    EXPECT_EQ(b.aggregation_energy_j, e.aggregation_energy_j);
    EXPECT_EQ(b.sram_energy_j, e.sram_energy_j);
    EXPECT_EQ(b.dram_energy_j, e.dram_energy_j);
  }
}

// ---------------------------------------------------------------------------
// Spec registry
// ---------------------------------------------------------------------------

TEST(SpecRegistry, AllNamesRoundTripAndSelfDescribe) {
  for (const std::string& name : spec_names()) {
    const auto acc = make_accelerator(name);
    ASSERT_NE(acc, nullptr) << name;
    EXPECT_EQ(acc->spec().name, name);
    EXPECT_GT(acc->static_power_w(), 0.0) << name;
  }
}

TEST(SpecRegistry, UnknownNameListsAcceptedNames) {
  try {
    (void)make_accelerator("quantum9000");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quantum9000"), std::string::npos) << what;
    for (const std::string& name : spec_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what << " missing " << name;
    }
  }
}

TEST(SpecRegistry, EcoVariantsTradeStaticPowerForLatency) {
  const auto tron_full = make_accelerator("tron");
  const auto tron_eco = make_accelerator("tron-eco");
  EXPECT_LT(tron_eco->static_power_w(), tron_full->static_power_w());
  // Latency can only get worse with half the fabric (equal when the model is
  // memory-bound rather than array-bound).
  const Workload w = Workload::transformer("bert", sim::transformer_by_name("bert-base"));
  EXPECT_GE(tron_eco->estimate(w).latency_s, tron_full->estimate(w).latency_s);
  const auto ghost_full = make_accelerator("ghost");
  const auto ghost_eco = make_accelerator("ghost-eco");
  EXPECT_LT(ghost_eco->static_power_w(), ghost_full->static_power_w());
}

TEST(SpecRegistry, ScaledVariantsParseAndScaleTheFabric) {
  const tron::TronConfig base = tron_config_by_name("tron");
  const tron::TronConfig half = tron_config_by_name("tron@0.5");
  EXPECT_EQ(half.head_units, std::max<std::size_t>(1, base.head_units / 2));
  EXPECT_EQ(half.ff_arrays, std::max<std::size_t>(1, base.ff_arrays / 2));
  const ghost::GhostConfig doubled = ghost_config_by_name("ghost@2");
  EXPECT_EQ(doubled.lanes, 2 * ghost_config_by_name("ghost").lanes);
  // Scaled names key their own specs (and so their own fleet caches).
  EXPECT_EQ(make_accelerator("tron@0.5")->spec().name, "tron@0.5");
  // Tiny scales clamp to one unit instead of zero.
  EXPECT_GE(tron_config_by_name("tron@0.001").head_units, 1u);
}

TEST(SpecRegistry, BadScaleSuffixesThrow) {
  EXPECT_THROW((void)make_accelerator("tron@"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@abc"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@0"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@-1"), InvalidArgument);
  EXPECT_THROW((void)make_accelerator("tron@1e30"), InvalidArgument);  // llround overflow
  EXPECT_THROW((void)make_accelerator("bogus@2"), InvalidArgument);
}

TEST(SpecRegistry, RegistryAcceleratorMatchesDirectConstruction) {
  const auto from_registry = make_accelerator("tron");
  const tron::TronAccelerator direct(tron::default_tron_config());
  const Workload w = Workload::transformer("gpt2", sim::transformer_by_name("gpt2", 256));
  expect_reports_identical(from_registry->estimate(w),
                           direct.estimate(w.transformer_config()));
}

// ---------------------------------------------------------------------------
// Serve-path parity: the new simulator vs an independent re-implementation
// of the pre-refactor event loop written against the concrete accelerators.
// ---------------------------------------------------------------------------

// Reference FIFO fleet simulation (the original algorithm, restated): strict
// arrival order, one request per dispatch, first-idle routing, completions
// processed before arrivals at equal times.  Uses `tron::TronAccelerator`
// directly — no arch, no caches, no masks.
struct ReferenceResult {
  std::size_t completed = 0;
  double p50 = 0.0, p99 = 0.0;
  double mean_latency = 0.0;
  double fleet_energy_j = 0.0;
  std::size_t dispatches = 0;
  double duration_s = 0.0;
};

ReferenceResult reference_fifo_tron(const serve::WorkloadCatalog& catalog,
                                    const std::vector<serve::Request>& trace,
                                    std::size_t n_acc) {
  const tron::TronAccelerator acc(tron::default_tron_config());
  std::vector<PerfReport> reports;
  for (std::uint32_t w = 0; w < catalog.size(); ++w) {
    reports.push_back(acc.estimate(catalog.workload(w).transformer_config(), 1));
  }

  std::vector<double> free_at(n_acc, 0.0);
  std::vector<double> busy(n_acc, 0.0);
  struct Done {
    double completion_s;
    std::uint64_t seq;  // dispatch order (arrival order under FIFO)
    double latency_s;
    double energy_j;
  };
  std::vector<Done> done;
  double last_completion = 0.0;

  // FIFO with first-idle routing degenerates to: each request starts at
  // max(arrival, earliest-free accelerator), on the lowest-index accelerator
  // free at that instant — equal-time completion/arrival ordering included,
  // because a completion at time t frees its slot before an arrival at t
  // dispatches (completions process first in the original loop).
  std::uint64_t seq = 0;
  for (const serve::Request& r : trace) {
    double earliest = free_at[0];
    for (std::size_t i = 1; i < n_acc; ++i) earliest = std::min(earliest, free_at[i]);
    const double start = std::max(r.arrival_s, earliest);
    std::size_t slot = 0;
    while (slot < n_acc && free_at[slot] > start) ++slot;
    const PerfReport& rep = reports[r.workload];
    free_at[slot] = start + rep.latency_s;
    busy[slot] += rep.latency_s;
    done.push_back({free_at[slot], seq++, free_at[slot] - r.arrival_s, rep.total_energy_j});
    last_completion = std::max(last_completion, free_at[slot]);
  }

  // The original loop accumulates sums in completion order (time, then
  // dispatch seq); replay that order so the floating-point sums are
  // bit-identical, not merely equal to rounding.
  std::sort(done.begin(), done.end(), [](const Done& a, const Done& b) {
    if (a.completion_s != b.completion_s) return a.completion_s < b.completion_s;
    return a.seq < b.seq;
  });
  std::vector<double> latencies;
  double dispatched_j = 0.0;
  double mean_sum = 0.0;
  for (const Done& d : done) {
    latencies.push_back(d.latency_s);
    mean_sum += d.latency_s;
    dispatched_j += d.energy_j;
  }

  ReferenceResult out;
  out.completed = trace.size();
  out.dispatches = trace.size();
  out.duration_s = last_completion;
  out.mean_latency = mean_sum / static_cast<double>(trace.size());
  double idle_j = 0.0;
  for (std::size_t i = 0; i < n_acc; ++i) {
    idle_j += std::max(0.0, last_completion - busy[i]) * acc.static_power_w();
  }
  out.fleet_energy_j = dispatched_j + idle_j;
  out.p50 = serve::percentile(latencies, 0.50);
  out.p99 = serve::percentile(latencies, 0.99);
  return out;
}

TEST(ServeParity, SimulatorMatchesReferenceFifoLoopBitForBit) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  serve::TraceConfig tc;
  tc.offered_qps = 0.8 * serve::fleet_capacity_qps(catalog, "tron", 3, 1);
  tc.request_count = 4000;
  tc.seed = 77;
  const std::vector<serve::Request> trace = serve::generate_trace(catalog, tc);

  const serve::FleetMetrics m =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 3), catalog, trace,
                      serve::SchedulerKind::kFifo, serve::BatchPolicy{});
  const ReferenceResult ref = reference_fifo_tron(catalog, trace, 3);

  EXPECT_EQ(m.completed, ref.completed);
  EXPECT_EQ(m.dispatches, ref.dispatches);
  EXPECT_EQ(m.duration_s, ref.duration_s);
  EXPECT_EQ(m.mean_latency_s, ref.mean_latency);
  EXPECT_EQ(m.p50_latency_s, ref.p50);
  EXPECT_EQ(m.p99_latency_s, ref.p99);
  EXPECT_EQ(m.fleet_energy_j, ref.fleet_energy_j);
}

// The full-path pin for the batched scheduler: the arch-routed simulator's
// service times must be exactly the concrete accelerators' estimates, so a
// single-accelerator dynamic-batch run must finish at the sum of its batch
// latencies (no queue-induced drift, no cache divergence).
TEST(ServeParity, BatchedServiceTimesComeFromConcreteEstimates) {
  serve::WorkloadCatalog catalog;
  catalog.add_transformer("bert-base/128", sim::transformer_by_name("bert-base", 128));
  // A burst of 8 simultaneous requests through max_batch=4: exactly two
  // batch-of-4 dispatches, back to back.
  std::vector<serve::Request> trace;
  for (std::uint64_t i = 0; i < 8; ++i) trace.push_back({i, 0.0, 0});
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_wait_s = 0.0;
  const serve::FleetMetrics m =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 1), catalog, trace,
                      serve::SchedulerKind::kDynamicBatch, policy);
  const tron::TronAccelerator acc(tron::default_tron_config());
  const PerfReport batch4 = acc.estimate(sim::transformer_by_name("bert-base", 128), 4);
  EXPECT_EQ(m.dispatches, 2u);
  EXPECT_EQ(m.duration_s, 2.0 * batch4.latency_s);
  EXPECT_EQ(m.max_latency_s, 2.0 * batch4.latency_s);
  EXPECT_EQ(m.p50_latency_s, batch4.latency_s);
}

// Campaign-level pin: the arch-routed campaign over the default TRON catalog
// must be bit-identical to a direct simulate() of the same grid point.
TEST(ServeParity, CampaignMatchesDirectSimulation) {
  const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::tron_default();
  serve::CampaignConfig cfg;
  cfg.base.catalog = catalog;
  cfg.base.traffic.open.request_count = 3000;
  cfg.base.traffic.open.seed = 5;
  cfg.qps = {0.6 * serve::fleet_capacity_qps(catalog, "tron", 2, 8)};
  cfg.schedulers = {serve::SchedulerKind::kDynamicBatch};
  cfg.fleet_sizes = {2};
  cfg.max_batches = {8};
  const std::vector<serve::CampaignPoint> points = serve::run_campaign(cfg);
  ASSERT_EQ(points.size(), 1u);

  serve::TraceConfig tc;
  tc.offered_qps = cfg.qps[0];
  tc.request_count = cfg.base.traffic.open.request_count;
  tc.seed = cfg.base.traffic.open.seed + 0x9E3779B9u * 1;
  serve::BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = cfg.base.batch.max_wait_s;
  serve::SimConfig sim_cfg;
  const serve::FleetMetrics direct =
      simulate_trace(serve::FleetConfig::homogeneous("tron", 2), catalog,
                      serve::generate_trace(catalog, tc), serve::SchedulerKind::kDynamicBatch,
                      policy, sim_cfg);
  EXPECT_EQ(points[0].metrics.p99_latency_s, direct.p99_latency_s);
  EXPECT_EQ(points[0].metrics.goodput_qps, direct.goodput_qps);
  EXPECT_EQ(points[0].metrics.fleet_energy_j, direct.fleet_energy_j);
}

// Figure-path parity: the polymorphic figure runner must reproduce the
// concrete accelerators' estimates cell by cell.
TEST(ServeParity, FigureRunnerReportsMatchConcreteEstimates) {
  const tron::TronConfig config = tron::default_tron_config();
  const sim::FigureData f = sim::run_fig8_epb_llm(TronAdapter(config));
  const tron::TronAccelerator concrete(config);
  const std::vector<arch::Workload> workloads = sim::llm_eval_workloads();
  ASSERT_EQ(f.workloads.size(), workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    expect_reports_identical(f.reports[w][0],
                             concrete.estimate(workloads[w].transformer_config()));
  }
}

}  // namespace
}  // namespace lumos::arch
