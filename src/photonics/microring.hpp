// Microring resonator (MR) device model.
//
// The MR is the workhorse of both TRON and GHOST: every multiply is an MR
// imprinting a value onto an optical carrier by detuning its resonance, and
// every weight bank is a row of MRs sharing a waveguide (paper Section IV,
// Fig. 3).  This model covers:
//
//  * the resonance condition of paper eq. (2):  lambda_MR = 2*pi*R*n_eff / m
//  * the free spectral range (FSR) set by the group index
//  * Lorentzian through-/drop-port transmission with loaded quality factor Q
//  * resonance shift under an effective-index perturbation (EO or TO tuning):
//        d_lambda = lambda * d_n_eff / n_g
//  * the mapping from a normalised value in [0,1] to the detuning that
//    produces that through-port transmission (how parameters are imprinted)
#pragma once

#include "common/constants.hpp"

namespace lumos::phot {

// Geometric and optical design parameters of a single microring.
struct MicroringDesign {
  double radius_m = 5e-6;                                   // ring radius R
  int resonance_order = 0;                                  // m in eq. (2); 0 = derive from target
  double target_wavelength_m = constants::kCBandCenterWavelength;
  double effective_index = constants::kSiEffectiveIndex;    // n_eff
  double group_index = constants::kSiGroupIndex;            // n_g
  double quality_factor = 8000.0;                           // loaded Q
  double extinction_ratio_db = 20.0;                        // on-resonance through-port dip
  double drop_port_peak_transmission = 0.9;                 // drop-port max
  double insertion_loss_db = 0.05;                          // off-resonance through loss
};

// A single microring resonator with a (mutable) tuning state.
class MicroringResonator {
 public:
  // Builds an MR from `design`.  If `design.resonance_order` is zero, the
  // order is chosen as the integer that places the resonance closest to
  // `design.target_wavelength_m`.
  explicit MicroringResonator(const MicroringDesign& design);

  // ---- Static spectral properties -------------------------------------------
  // Resonant wavelength per eq. (2) for the chosen order, with zero tuning.
  [[nodiscard]] double base_resonance_wavelength() const noexcept { return base_resonance_m_; }
  // Current resonance including the applied tuning shift.
  [[nodiscard]] double resonance_wavelength() const noexcept {
    return base_resonance_m_ + tuning_shift_m_;
  }
  [[nodiscard]] int resonance_order() const noexcept { return order_; }
  // Free spectral range  FSR = lambda^2 / (n_g * L)  with L = 2*pi*R.
  [[nodiscard]] double free_spectral_range() const noexcept { return fsr_m_; }
  // Lorentzian full width at half maximum  FWHM = lambda / Q.
  [[nodiscard]] double fwhm() const noexcept { return fwhm_m_; }
  [[nodiscard]] double quality_factor() const noexcept { return design_.quality_factor; }
  [[nodiscard]] const MicroringDesign& design() const noexcept { return design_; }

  // ---- Transmission ----------------------------------------------------------
  // Through-port power transmission at `wavelength_m` (0..1).  On resonance
  // this dips to the extinction floor; far off resonance it approaches the
  // (small) insertion loss.
  [[nodiscard]] double through_transmission(double wavelength_m) const noexcept;
  // Drop-port power transmission at `wavelength_m` (0..1).
  [[nodiscard]] double drop_transmission(double wavelength_m) const noexcept;

  // ---- Tuning ----------------------------------------------------------------
  // Applies an effective-index perturbation (from an EO or TO actuator) and
  // returns the resulting resonance shift  d_lambda = lambda * d_n_eff / n_g.
  double apply_index_shift(double delta_n_eff) noexcept;

  // ---- Value imprinting ------------------------------------------------------
  // Detuning (in metres, >= 0) that makes the through-port transmit the
  // normalised `value` in [extinction_floor, 1-IL]; this is how an analog
  // parameter is written onto a carrier (paper Fig. 3a).  Inverts the
  // Lorentzian.
  [[nodiscard]] double detuning_for_value(double value) const;
  // Transmission actually realised for normalised `value` given a tuning
  // error of `tuning_error_m` (models DAC/thermal imprecision).
  [[nodiscard]] double imprint(double value, double tuning_error_m = 0.0) const;

  // Extinction floor: through-port transmission exactly on resonance.
  [[nodiscard]] double extinction_floor() const noexcept { return extinction_floor_; }
  // Best achievable transmission (limited by insertion loss).
  [[nodiscard]] double max_transmission() const noexcept { return max_transmission_; }

 private:
  MicroringDesign design_;
  int order_;
  double base_resonance_m_;
  double fsr_m_;
  double fwhm_m_;
  double extinction_floor_;
  double max_transmission_;
  double tuning_shift_m_ = 0.0;
};

}  // namespace lumos::phot
