#include "tron/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace lumos::tron {

namespace {
SoftmaxLutConfig softmax_config_from(const TronConfig& c) {
  SoftmaxLutConfig s;
  s.parallel_units = c.softmax_lut_units;
  s.clock_hz = c.digital_clock_hz;
  s.energy_per_element_j = c.lut_energy_per_element_j;
  return s;
}
}  // namespace

TronConfig default_tron_config() {
  TronConfig c;
  // Bank design: 16 wavelengths per waveguide is the feasibility fixed point
  // of the WDM search at Q = 8000 / 8-bit SNR (see bench_ablation_crosstalk).
  c.bank.wavelength_count = c.array_rows;
  c.bank.symbol_rate_hz = c.symbol_rate_hz;
  c.bank.heterodyne.channel_count = c.array_rows;
  // Two HBM2 stacks, as assumed by the paper's TransPIM-class competitors.
  c.dram.bandwidth_bytes_per_s = 512e9;
  return c;
}

TronAccelerator::TronAccelerator(const TronConfig& config)
    : config_(config),
      head_(config, softmax_config_from(config)),
      residual_adder_(config.bank, config.homodyne, 2),
      ln_ring_(config.bank),
      soa_({}),
      weight_buffer_(config.weight_buffer),
      activation_buffer_(config.activation_buffer),
      dram_(config.dram),
      mapping_array_(config.bank, config.array_cols),
      pass_energies_(mapping_array_.pass_energies()),
      mapping_softmax_(softmax_config_from(config)) {
  LUMOS_EXPECTS(config.head_units >= 1);
  LUMOS_EXPECTS(config.array_rows >= 1 && config.array_cols >= 1);
  LUMOS_EXPECTS(config.symbol_rate_hz > 0.0);
}

double TronAccelerator::static_power_w() const {
  const double per_array = mapping_array_.matvec_cost().static_power_w;
  const double arrays = static_cast<double>(config_.total_arrays());
  const phot::SoaConfig soa_cfg;
  // One SOA bank (array_cols amplifiers) serves the FF activations.
  const double soa_bias = static_cast<double>(config_.array_cols) * soa_cfg.bias_power_w;
  return arrays * per_array + config_.digital_static_power_w +
         weight_buffer_.leakage_power_w() + activation_buffer_.leakage_power_w() +
         dram_.static_power_w() + soa_bias;
}

void TronAccelerator::add_layers(PerfReport& r, const std::vector<nn::OpSpec>& trace,
                                 std::size_t batch, std::size_t layers,
                                 double stream_s) const {
  PerfBreakdown pass;
  const phot::MrBankArray::PassEnergies& pe = pass_energies_;
  const SoftmaxLut& softmax = mapping_softmax_;
  const double rate = config_.symbol_rate_hz;
  const std::size_t kh = config_.array_rows;
  const std::size_t nh = config_.array_cols;

  double compute_s = 0.0;
  for (const nn::OpSpec& op : trace) {
    // Batched execution streams `batch` sequences through the stationary
    // weights: every row count scales by the batch.
    const std::size_t m = op.m * batch;
    switch (op.kind) {
      case nn::OpKind::kMatMul: {
        const std::size_t tiles_k = (op.k + kh - 1) / kh;
        const std::size_t tiles_n = (op.n + nh - 1) / nh;
        const std::size_t passes = m * tiles_k * tiles_n * op.repeat;
        // FF MatMuls run on the FF unit's arrays; attention MatMuls are
        // spread over the head units' arrays.
        const bool is_ff = op.label[0] == 'F';
        const std::size_t arrays =
            is_ff ? config_.ff_arrays : config_.attention_arrays();
        const double t = std::ceil(static_cast<double>(passes) / static_cast<double>(arrays)) /
                         rate;
        compute_s += t;
        pass.matmul_time_s += t;
        // Weight-stationary dataflow: read-outs and laser per row pass; input
        // rows imprinted once per K-tile and broadcast to the arrays working
        // the parallel column tiles; weight imprints once per tile reprogram.
        // Partially filled edge tiles only pay for the rows/columns they use.
        const double frac_k = static_cast<double>(op.k) / static_cast<double>(tiles_k * kh);
        const double frac_n = static_cast<double>(op.n) / static_cast<double>(tiles_n * nh);
        const double input_charges = static_cast<double>(m * tiles_k * op.repeat);
        const double tile_reprograms =
            static_cast<double>(tiles_k * tiles_n * op.repeat);
        pass.laser_dac_adc_energy_j +=
            input_charges * pe.input_dac_j * frac_k +
            static_cast<double>(passes) * (pe.adc_j * frac_n + pe.laser_j * frac_k * frac_n) +
            tile_reprograms * pe.weight_dac_j * frac_k * frac_n;
        // Digital partial-sum accumulation across K tiles.
        const double psums = static_cast<double>(m * op.n * op.repeat) *
                             static_cast<double>(tiles_k > 0 ? tiles_k - 1 : 0);
        pass.partial_sum_energy_j += psums * config_.partial_sum_add_energy_j;
        // SRAM traffic: read inputs + weights, write outputs (int8).
        const double bytes = static_cast<double>(m * op.k + op.k * op.n + m * op.n) *
                             static_cast<double>(op.repeat);
        const double words = bytes / static_cast<double>(config_.activation_buffer.word_bytes);
        pass.sram_energy_j += words * activation_buffer_.read_energy_j();
        break;
      }
      case nn::OpKind::kSoftmax: {
        const std::size_t elems = op.elements() * batch;
        compute_s += softmax.latency_s(elems);
        pass.softmax_time_s += softmax.latency_s(elems);
        pass.softmax_energy_j += softmax.energy_j(elems);
        break;
      }
      case nn::OpKind::kLayerNorm:
      case nn::OpKind::kActivation:
      case nn::OpKind::kResidualAdd: {
        // Element-wise optical stages: array_cols lanes at the symbol rate.
        const std::size_t elems = op.elements() * batch;
        const double t =
            std::ceil(static_cast<double>(elems) / static_cast<double>(nh)) / rate;
        compute_s += t;
        pass.elementwise_time_s += t;
        const phot::DacModel dac(config_.bank.dac);
        pass.elementwise_energy_j += static_cast<double>(elems) * dac.energy_per_conversion_j();
        break;
      }
    }
  }
  // Each layer double-buffers its weight stream against its compute, so it
  // stalls only for the part of the stream its compute does not hide.
  const double stack = static_cast<double>(layers);
  r.latency_s += std::max(compute_s, stream_s) * stack;
  r.breakdown.memory_stall_s += std::max(0.0, stream_s - compute_s) * stack;
  r.breakdown.add(pass, stack);
}

PerfReport TronAccelerator::estimate(const nn::TransformerConfig& model,
                                     std::size_t batch) const {
  LUMOS_EXPECTS(batch >= 1);
  PerfReport r;
  r.workload = model.name;
  r.platform = "TRON";
  r.bits = config_.bits;
  r.op_count = model.op_count() * batch;

  // Per-layer weight streaming from DRAM (int8), amortised over the whole
  // batch: the stream is paid once per layer, whatever the batch.
  const double total_layers =
      static_cast<double>(model.layers + model.decoder_layers);
  const auto layer_weight_bytes = static_cast<std::size_t>(
      static_cast<double>(model.parameter_count()) / total_layers);
  const double stream_s = dram_.transfer_latency_s(layer_weight_bytes);
  add_layers(r, nn::layer_trace(model), batch, model.layers, stream_s);
  // Seq2seq decoders (paper Fig. 1) add cross-attention layers.
  if (model.decoder_layers > 0) {
    add_layers(r, nn::decoder_layer_trace(model), batch, model.decoder_layers, stream_s);
  }
  r.breakdown.dram_energy_j = dram_.transfer_energy_j(layer_weight_bytes) * total_layers;
  r.set_energy_totals(static_power_w());
  return r;
}

PerfReport TronAccelerator::estimate_decode_step(const nn::TransformerConfig& model,
                                                 std::size_t batch,
                                                 std::size_t context_len) const {
  LUMOS_EXPECTS(batch >= 1);
  LUMOS_EXPECTS(context_len >= 1);
  PerfReport r;
  r.workload = model.name + " (decode step @" + std::to_string(context_len) + ")";
  r.platform = "TRON";
  r.bits = config_.bits;
  r.op_count = 2 * nn::generation_step_macs(model, context_len) * batch;

  // Single-token decode re-streams every layer's weights each step (the KV
  // cache stays resident, the weights do not): the memory-bound regime.  The
  // stream is paid once per step no matter how many lanes decode; only the
  // compute side scales with the batch.
  const double layers = static_cast<double>(model.layers);
  const auto layer_weight_bytes =
      static_cast<std::size_t>(static_cast<double>(model.parameter_count()) / layers);
  add_layers(r, nn::generation_layer_trace(model, context_len), batch, model.layers,
             dram_.transfer_latency_s(layer_weight_bytes));
  r.breakdown.dram_energy_j = dram_.transfer_energy_j(layer_weight_bytes) * layers;
  r.set_energy_totals(static_power_w());
  return r;
}

phot::AreaReport TronAccelerator::area() const {
  phot::AreaReport fabric = phot::bank_array_area(config_.array_rows, config_.array_cols);
  // One bank array's report scaled to the full fabric.
  phot::AreaReport r;
  const std::size_t arrays = config_.total_arrays();
  for (const phot::AreaItem& item : fabric.items) {
    r.items.push_back({item.component, item.count * arrays,
                       item.total_m2 * static_cast<double>(arrays)});
  }
  const phot::DeviceAreas d;
  r.add("coherent residual adders (VCSEL pairs + BPD)", config_.array_cols,
        2 * d.vcsel_m2 + d.balanced_pd_m2);
  r.add("LayerNorm microrings", config_.array_cols, d.microring_m2);
  r.add("FF SOA bank", config_.array_cols, d.soa_m2);
  r.add("softmax LUT + digital control", 1, d.digital_logic_m2);
  r.add("weight buffer SRAM", config_.weight_buffer.capacity_bytes, d.sram_m2_per_byte);
  r.add("activation buffer SRAM", config_.activation_buffer.capacity_bytes,
        d.sram_m2_per_byte);
  return r;
}

nn::Matrix TronAccelerator::forward(const nn::TransformerWeights& weights, const nn::Matrix& x,
                                    Rng& rng, const phot::AnalogNoiseConfig& noise) const {
  const nn::TransformerConfig& cfg = weights.config;
  LUMOS_EXPECTS(x.cols() == cfg.d_model);
  const std::size_t hd = cfg.head_dim();

  nn::Matrix h = x;
  // Per-head projection slices and the head-concat buffer are reused across
  // heads and layers (their shapes are layer-invariant).
  nn::Matrix concat;
  nn::Matrix wq(cfg.d_model, hd);
  nn::Matrix wk(cfg.d_model, hd);
  nn::Matrix wv(cfg.d_model, hd);
  for (const nn::TransformerLayerWeights& layer : weights.layers) {
    // ---- MHA: per-head slices through the attention-head unit ----
    concat.resize(h.rows(), cfg.d_model);
    for (std::size_t head = 0; head < cfg.heads; ++head) {
      // Column slices of the projection matrices for this head.
      const std::size_t off = head * hd;
      for (std::size_t r = 0; r < cfg.d_model; ++r) {
        for (std::size_t c = 0; c < hd; ++c) {
          wq(r, c) = layer.wq(r, off + c);
          wk(r, c) = layer.wk(r, off + c);
          wv(r, c) = layer.wv(r, off + c);
        }
      }
      const nn::Matrix out = head_.forward(h, wq, wk, wv, rng, noise);
      for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < hd; ++c) concat(r, off + c) = out(r, c);
    }
    const nn::Matrix attn = photonic_matmul(concat, layer.wo, head_.array(), rng, noise);

    // ---- Residual + optical LayerNorm ----
    const nn::Matrix res1 = photonic_residual_add(attn, h, residual_adder_, rng, noise);
    nn::Matrix h1 =
        photonic_layer_norm(res1, layer.ln1_gamma, layer.ln1_beta, ln_ring_, rng, noise);

    // ---- FF with SOA ReLU ----
    nn::Matrix ff = photonic_matmul(h1, layer.w1, head_.array(), rng, noise);
    const double act_scale = std::max(ff.max_abs(), 1e-12);
    for (double& v : ff.flat()) {
      v = soa_.activate(phot::OpticalActivation::kRelu, std::clamp(v / act_scale, -1.0, 1.0)) *
          act_scale;
    }
    const nn::Matrix ff2 = photonic_matmul(ff, layer.w2, head_.array(), rng, noise);

    const nn::Matrix res2 = photonic_residual_add(ff2, h1, residual_adder_, rng, noise);
    h = photonic_layer_norm(res2, layer.ln2_gamma, layer.ln2_beta, ln_ring_, rng, noise);
  }
  return h;
}

}  // namespace lumos::tron
