// Ablation C (DESIGN.md): the eq. (3) score-path decomposition.
//
//   Q.K^T = (Q.W_K^T).X^T          (paper Section V.C)
//
// Compares the all-optical decomposed ordering against the naive ordering
// that detects K, transposes digitally, and re-imprints — per attention head,
// across the LLM model zoo: conversion counts, conversion energy, latency.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "nn/transformer.hpp"
#include "tron/attention_head.hpp"

namespace {

using namespace lumos;
using namespace lumos::tron;

void print_ablation() {
  const TronConfig config = default_tron_config();
  const AttentionHeadUnit head(config, {});
  Table t("Ablation C: eq. (3) decomposed vs naive Q.K^T per attention head");
  t.add_row({"model", "path", "ADC convs", "DAC convs", "conv energy", "latency"});
  for (const nn::TransformerConfig& model : nn::llm_model_zoo()) {
    const auto dec =
        head.decomposed_score_costs(model.seq_len, model.d_model, model.head_dim());
    const auto naive = head.naive_score_costs(model.seq_len, model.d_model, model.head_dim());
    t.add_row({model.name, "decomposed", std::to_string(dec.adc_conversions),
               std::to_string(dec.dac_conversions),
               Table::num(dec.energy_j * 1e6, 2) + " uJ",
               Table::num(units::to_us(dec.latency_s), 3) + " us"});
    t.add_row({"", "naive", std::to_string(naive.adc_conversions),
               std::to_string(naive.dac_conversions),
               Table::num(naive.energy_j * 1e6, 2) + " uJ",
               Table::num(units::to_us(naive.latency_s), 3) + " us"});
    t.add_row({"", "saved",
               std::to_string(naive.adc_conversions - dec.adc_conversions),
               std::to_string(naive.dac_conversions - dec.dac_conversions),
               Table::num((naive.energy_j - dec.energy_j) * 1e6, 2) + " uJ", "-"});
  }
  t.print(std::cout);
  std::cout << "The decomposition trades extra optical passes (free at the symbol rate)\n"
               "for the elimination of the K matrix's O/E/O round trip.\n\n";
}

}  // namespace

int main() {
  print_ablation();
  return 0;
}
