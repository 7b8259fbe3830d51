// Physical-unit conversion helpers and decibel math.
//
// The library represents physical quantities as plain `double`s in base SI
// units (watts, joules, seconds, metres, hertz).  Variable names carry the
// unit as a suffix (`power_w`, `latency_s`, `wavelength_m`, ...).  This header
// centralises the conversion constants and the dB/linear conversions that the
// photonic loss-budget code uses throughout.
#pragma once

#include <cmath>

namespace lumos::units {

// ---- SI prefixes (multiply to convert INTO base units) ---------------------
inline constexpr double kTera = 1e12;
inline constexpr double kGiga = 1e9;
inline constexpr double kMega = 1e6;
inline constexpr double kKilo = 1e3;
inline constexpr double kMilli = 1e-3;
inline constexpr double kMicro = 1e-6;
inline constexpr double kNano = 1e-9;
inline constexpr double kPico = 1e-12;
inline constexpr double kFemto = 1e-15;
inline constexpr double kAtto = 1e-18;

// ---- Convenience constructors ----------------------------------------------
[[nodiscard]] constexpr double ghz(double v) { return v * kGiga; }
[[nodiscard]] constexpr double nm(double v) { return v * kNano; }
[[nodiscard]] constexpr double um(double v) { return v * kMicro; }
[[nodiscard]] constexpr double mm(double v) { return v * kMilli; }
[[nodiscard]] constexpr double ns(double v) { return v * kNano; }
[[nodiscard]] constexpr double ps(double v) { return v * kPico; }
[[nodiscard]] constexpr double us(double v) { return v * kMicro; }
[[nodiscard]] constexpr double ms(double v) { return v * kMilli; }
[[nodiscard]] constexpr double mw(double v) { return v * kMilli; }
[[nodiscard]] constexpr double fj(double v) { return v * kFemto; }

// ---- Read-out helpers (convert OUT of base units) ---------------------------
[[nodiscard]] constexpr double to_nm(double m) { return m / kNano; }
[[nodiscard]] constexpr double to_ns(double s) { return s / kNano; }
[[nodiscard]] constexpr double to_us(double s) { return s / kMicro; }
[[nodiscard]] constexpr double to_mw(double w) { return w / kMilli; }
[[nodiscard]] constexpr double to_pj(double j) { return j / kPico; }
[[nodiscard]] constexpr double to_fj(double j) { return j / kFemto; }
[[nodiscard]] constexpr double to_gops(double ops_per_s) { return ops_per_s / kGiga; }

// ---- Decibel math ------------------------------------------------------------
// Power ratio <-> dB.  Loss stacks in photonic links are naturally additive in
// dB; detector sensitivities are quoted in dBm.
[[nodiscard]] inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }
[[nodiscard]] inline double linear_to_db(double ratio) { return 10.0 * std::log10(ratio); }

// Absolute power <-> dBm (decibels referenced to 1 mW).
[[nodiscard]] inline double dbm_to_watts(double dbm) { return 1e-3 * std::pow(10.0, dbm / 10.0); }
[[nodiscard]] inline double watts_to_dbm(double watts) { return 10.0 * std::log10(watts / 1e-3); }

// Attenuation helper: apply `loss_db` (positive = loss) to a power in watts.
[[nodiscard]] inline double attenuate(double power_w, double loss_db) {
  return power_w * db_to_linear(-loss_db);
}

}  // namespace lumos::units
