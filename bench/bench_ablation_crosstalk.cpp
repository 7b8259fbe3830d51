// Ablation B (DESIGN.md): WDM design-space sweep — the Fig. 3(d) physics.
//
// Regenerates the channel-count / Q-factor feasibility frontier that fixes
// the accelerators' 16-wavelength bank design: crosstalk vs spacing, the
// post-calibration SNR, and the per-channel laser power.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "photonics/wdm.hpp"

namespace {

using namespace lumos;
using namespace lumos::phot;

void print_sweep() {
  const WdmLinkDesigner designer(MicroringDesign{}, PhotodetectorConfig{}, VcselConfig{},
                                 LossStack{});
  WdmSearchSpace space;
  Table t("Ablation B: WDM design space (crosstalk-limited channel count, Fig. 3d physics)");
  t.add_row({"Q", "channels", "spacing", "worst xtalk", "OSCR", "eff. SNR", "laser/ch",
             "feasible"});
  for (const WdmDesignPoint& p : designer.sweep(space)) {
    t.add_row({Table::num(p.quality_factor, 0), std::to_string(p.channel_count),
               Table::num(units::to_nm(p.channel_spacing_m), 3) + " nm",
               Table::num(p.crosstalk_fraction, 4),
               Table::num(p.oscr_db, 1) + " dB",
               Table::num(p.effective_snr_db, 1) + " dB",
               Table::num(units::to_mw(p.laser_power_per_channel_w), 3) + " mW",
               p.feasible ? "yes" : "no"});
  }
  t.print(std::cout);
  if (const auto best = designer.best(space)) {
    std::cout << "Best design point: Q=" << best->quality_factor << ", "
              << best->channel_count << " channels, "
              << Table::num(units::to_nm(best->channel_spacing_m), 3)
              << " nm spacing, effective SNR " << Table::num(best->effective_snr_db, 1)
              << " dB\n\n";
  }
}

}  // namespace

int main() {
  print_sweep();
  return 0;
}
