// LLM inference study: maps the full transformer zoo onto TRON and the
// electronic comparison platforms, sweeps sequence length, and prints the
// per-stage breakdown of where TRON's time and energy go.
//
// Build & run:  ./build/llm_inference
#include <iostream>

#include "baselines/platforms.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "tron/accelerator.hpp"

int main() {
  using namespace lumos;
  const tron::TronAccelerator acc(tron::default_tron_config());

  // --- Zoo comparison ------------------------------------------------------
  Table zoo("Transformer zoo on TRON vs electronic platforms (batch-1 inference)");
  zoo.add_row({"model", "platform", "latency", "GOPS", "EPB"});
  for (const nn::TransformerConfig& model : nn::llm_model_zoo()) {
    const PerfReport ours = acc.estimate(model);
    zoo.add_row({model.name, "TRON", Table::num(units::to_us(ours.latency_s), 1) + " us",
                 Table::num(units::to_gops(ours.ops_per_second()), 0),
                 Table::num(units::to_pj(ours.energy_per_bit_j()), 3) + " pJ/b"});
    for (const baselines::PlatformModel& p : baselines::llm_baselines()) {
      const PerfReport r = p.estimate_transformer(model);
      zoo.add_row({"", p.spec().name, Table::num(units::to_us(r.latency_s), 1) + " us",
                   Table::num(units::to_gops(r.ops_per_second()), 0),
                   Table::num(units::to_pj(r.energy_per_bit_j()), 3) + " pJ/b"});
    }
  }
  zoo.print(std::cout);

  // --- Sequence-length sweep ------------------------------------------------
  Table sweep("TRON sequence-length sweep (BERT-base)");
  sweep.add_row({"seq len", "latency", "GOPS", "EPB", "softmax share"});
  for (const std::size_t len : {64u, 128u, 256u, 384u, 512u}) {
    const PerfReport r = acc.estimate(nn::bert_base(len));
    sweep.add_row({std::to_string(len), Table::num(units::to_us(r.latency_s), 1) + " us",
                   Table::num(units::to_gops(r.ops_per_second()), 0),
                   Table::num(units::to_pj(r.energy_per_bit_j()), 3) + " pJ/b",
                   Table::num(100.0 * r.breakdown.softmax_time_s / r.latency_s, 1) + " %"});
  }
  sweep.print(std::cout);

  // --- Where does the time/energy go? ---------------------------------------
  const PerfReport r = acc.estimate(nn::bert_base());
  const PerfBreakdown& b = r.breakdown;
  Table brk("BERT-base on TRON: per-stage breakdown");
  brk.add_row({"stage", "time", "energy"});
  brk.add_row({"MatMul (MR bank arrays)", Table::num(units::to_us(b.matmul_time_s), 2) + " us",
               Table::num(b.laser_dac_adc_energy_j * 1e3, 3) + " mJ"});
  brk.add_row({"softmax (digital LUT)", Table::num(units::to_us(b.softmax_time_s), 2) + " us",
               Table::num(b.softmax_energy_j * 1e3, 3) + " mJ"});
  brk.add_row({"element-wise (LN/residual/ReLU)",
               Table::num(units::to_us(b.elementwise_time_s), 2) + " us",
               Table::num(b.elementwise_energy_j * 1e3, 3) + " mJ"});
  brk.add_row({"DRAM weight streaming (stall)",
               Table::num(units::to_us(b.memory_stall_s), 2) + " us",
               Table::num(b.dram_energy_j * 1e3, 3) + " mJ"});
  brk.add_row({"SRAM buffers", "-", Table::num(b.sram_energy_j * 1e3, 3) + " mJ"});
  brk.add_row({"static (tuning hold, converters, lasers idle)",
               "-", Table::num(r.static_energy_j * 1e3, 3) + " mJ"});
  brk.print(std::cout);
  std::cout << "Total: " << units::to_us(r.latency_s) << " us, "
            << r.total_energy_j * 1e3 << " mJ per inference\n";
  return 0;
}
