// Ablation A (DESIGN.md): tuning-circuit policy comparison.
//
// Quantifies the paper's Section V.A design choices: EO-only saturates, TO-
// only burns power and latency, the hybrid takes the best of both, and TED
// cuts the bank-level TO power versus independent per-ring feedback.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "photonics/tuning.hpp"

namespace {

using namespace lumos;
using namespace lumos::phot;

void print_policy_table() {
  const MicroringResonator ring{MicroringDesign{}};
  const TuningCircuit circuit({}, ring);
  Table t("Ablation A1: per-ring tuning policy (energy/power/latency per shift)");
  t.add_row({"shift", "policy", "achieved", "dyn energy", "hold power", "latency", "saturated"});
  for (const double shift_nm : {0.01, 0.05, 0.2, 1.0, 5.0}) {
    for (const auto& [policy, name] :
         {std::pair{TuningPolicy::kEoOnly, "EO-only"},
          std::pair{TuningPolicy::kToOnly, "TO-only"},
          std::pair{TuningPolicy::kHybrid, "hybrid"}}) {
      const TuningResult r = circuit.tune(units::nm(shift_nm), policy);
      t.add_row({Table::num(shift_nm, 3) + " nm", name,
                 Table::num(units::to_nm(r.achieved_shift_m), 4) + " nm",
                 Table::num(units::to_fj(r.dynamic_energy_j), 1) + " fJ",
                 Table::num(units::to_mw(r.static_power_w), 4) + " mW",
                 Table::num(units::to_ns(r.latency_s), 2) + " ns",
                 r.saturated ? "yes" : "no"});
    }
  }
  t.print(std::cout);
}

void print_ted_table() {
  const MicroringResonator ring{MicroringDesign{}};
  Table t("Ablation A2: bank-level TO power, naive per-ring feedback vs TED");
  t.add_row({"rings", "pitch", "naive", "TED", "saving", "naive err", "TED err"});
  for (const std::size_t rings : {8u, 16u, 32u}) {
    for (const double pitch_um : {15.0, 25.0, 40.0}) {
      const ThermalBank bank({rings, pitch_um * 1e-6, 1.2e4, 35e-6});
      std::vector<double> shifts(rings);
      for (std::size_t i = 0; i < rings; ++i) {
        shifts[i] = units::nm(0.05 + 0.01 * static_cast<double>(i % 7));
      }
      const BankTuningPower p = bank_tuning_power(bank, shifts, {}, ring);
      t.add_row({std::to_string(rings), Table::num(pitch_um, 0) + " um",
                 Table::num(units::to_mw(p.naive_w), 2) + " mW",
                 Table::num(units::to_mw(p.ted_w), 2) + " mW",
                 Table::num(100.0 * (1.0 - p.ted_w / p.naive_w), 1) + " %",
                 Table::num(p.max_error_naive_k, 3) + " K",
                 Table::num(p.max_error_ted_k, 3) + " K"});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  print_policy_table();
  print_ted_table();
  return 0;
}
