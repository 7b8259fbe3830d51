// Photonic design explorer: walks the device-level design space that fixes
// the accelerators' MR bank configuration — ring geometry, WDM channel plan,
// laser budget, tuning policy — and prints the governing physics at each step
// (paper Sections IV and V.A/V.B).
//
// Build & run:  ./build/photonic_design_explorer
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "photonics/laser.hpp"
#include "photonics/soa.hpp"
#include "photonics/tuning.hpp"
#include "photonics/wdm.hpp"

int main() {
  using namespace lumos;
  using namespace lumos::phot;

  // --- Ring geometry --------------------------------------------------------
  Table rings("Microring geometry across radii (eq. 2 resonance, FSR, linewidth)");
  rings.add_row({"radius", "order m", "lambda_MR", "FSR", "FWHM @ Q=8000"});
  for (const double radius_um : {3.0, 5.0, 8.0, 12.0, 20.0}) {
    MicroringDesign d;
    d.radius_m = radius_um * 1e-6;
    const MicroringResonator mr(d);
    rings.add_row({Table::num(radius_um, 0) + " um", std::to_string(mr.resonance_order()),
                   Table::num(units::to_nm(mr.base_resonance_wavelength()), 2) + " nm",
                   Table::num(units::to_nm(mr.free_spectral_range()), 2) + " nm",
                   Table::num(units::to_nm(mr.fwhm()), 4) + " nm"});
  }
  rings.print(std::cout);

  // --- WDM channel plan -------------------------------------------------------
  const WdmLinkDesigner designer(MicroringDesign{}, PhotodetectorConfig{}, VcselConfig{},
                                 LossStack{});
  if (const auto best = designer.best(WdmSearchSpace{})) {
    std::cout << "WDM search fixed point: Q=" << best->quality_factor << ", "
              << best->channel_count << " channels at "
              << Table::num(units::to_nm(best->channel_spacing_m), 3)
              << " nm spacing (effective SNR " << Table::num(best->effective_snr_db, 1)
              << " dB, laser "
              << Table::num(units::to_mw(best->laser_power_per_channel_w), 2)
              << " mW/channel)\n\n";
  }

  // --- Laser budget vs path loss ----------------------------------------------
  Table laser("Laser power budget vs waveguide path length (8-bit detection)");
  laser.add_row({"path", "total loss", "launch power", "wall-plug power"});
  const Photodetector pd{PhotodetectorConfig{}};
  for (const double cm : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    LossStack losses;
    losses.path_length_cm = cm;
    const LaserBudget b = size_laser(pd, losses, 8, VcselConfig{});
    laser.add_row({Table::num(cm, 2) + " cm", Table::num(losses.total_db(), 2) + " dB",
                   Table::num(units::to_mw(b.required_launch_power_w), 3) + " mW",
                   Table::num(units::to_mw(b.electrical_power_w), 3) + " mW" +
                       (b.feasible ? "" : " (INFEASIBLE)")});
  }
  laser.print(std::cout);

  // --- Tuning policy ------------------------------------------------------------
  const MicroringResonator ring{MicroringDesign{}};
  const TuningCircuit circuit({}, ring);
  std::cout << "Tuning ranges: EO covers " << Table::num(units::to_nm(circuit.eo_range_m()), 4)
            << " nm, TO covers " << Table::num(units::to_nm(circuit.to_range_m()), 1)
            << " nm; the hybrid policy uses EO below the crossover and engages the\n"
            << "heater (with TED bank coordination) only beyond it.\n\n";

  // --- SOA activations ------------------------------------------------------------
  const Soa soa({});
  Table act("SOA optical activation fidelity (max |SOA - ideal| over [-1,1])");
  act.add_row({"activation", "worst-case error"});
  act.add_row({"ReLU", Table::num(soa.approximation_error(OpticalActivation::kRelu), 4)});
  act.add_row({"sigmoid", Table::num(soa.approximation_error(OpticalActivation::kSigmoid), 4)});
  act.add_row({"tanh", Table::num(soa.approximation_error(OpticalActivation::kTanh), 4)});
  act.print(std::cout);
  return 0;
}
