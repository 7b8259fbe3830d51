#include "ghost/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace lumos::ghost {

namespace {
// Rejects a configuration no unit could run, before any unit is built from
// it (a unit built first would fail on its own, less clearly, or not at all).
const GhostConfig& checked(const GhostConfig& c) {
  LUMOS_EXPECTS(c.lanes >= 1);
  LUMOS_EXPECTS(c.feature_lanes >= 1);
  LUMOS_EXPECTS(c.reduce_branches >= 1);
  LUMOS_EXPECTS(c.transform_arrays_per_lane >= 1);
  LUMOS_EXPECTS(c.array_rows >= 1 && c.array_cols >= 1);
  LUMOS_EXPECTS(c.symbol_rate_hz > 0.0);
  LUMOS_EXPECTS(c.input_block_size >= 1);
  return c;
}

tron::SoftmaxLutConfig softmax_config_from(const GhostConfig& c) {
  tron::SoftmaxLutConfig s;
  s.parallel_units = c.lanes * c.feature_lanes;
  s.clock_hz = c.digital_clock_hz;
  s.energy_per_element_j = c.lut_energy_per_element_j;
  return s;
}
}  // namespace

GhostAccelerator::GhostAccelerator(const GhostConfig& config)
    : config_(checked(config)),
      reduce_(config),
      update_(config),
      transform_array_(config.bank, config.array_cols),
      pass_energies_(transform_array_.pass_energies()),
      score_bank_(config.bank),
      softmax_(softmax_config_from(config)),
      feature_buffer_(config.feature_buffer),
      weight_buffer_(config.weight_buffer),
      edge_buffer_(config.edge_buffer),
      dram_(config.dram) {}

double GhostAccelerator::static_power_w() const {
  const double per_array = transform_array_.matvec_cost().static_power_w;
  const double arrays = static_cast<double>(config_.transform_arrays());
  // Reduce units: converter static per lane (VCSEL banks are dynamic-only in
  // our model; converters hold).
  const phot::DacModel dac(config_.bank.dac);
  const phot::AdcModel adc(config_.bank.adc);
  const double reduce_static = static_cast<double>(config_.lanes) *
                               (dac.static_power_w() + adc.static_power_w());
  return arrays * per_array + reduce_static + update_.static_power_w() +
         config_.digital_static_power_w + feature_buffer_.leakage_power_w() +
         weight_buffer_.leakage_power_w() + edge_buffer_.leakage_power_w() +
         dram_.static_power_w();
}

phot::AreaReport GhostAccelerator::area() const {
  phot::AreaReport fabric = phot::bank_array_area(config_.array_rows, config_.array_cols);
  phot::AreaReport r;
  const std::size_t arrays = config_.transform_arrays();
  for (const phot::AreaItem& item : fabric.items) {
    r.items.push_back({item.component, item.count * arrays,
                       item.total_m2 * static_cast<double>(arrays)});
  }
  const phot::DeviceAreas d;
  // Reduce units: per lane, `feature_lanes` rows of `reduce_branches` VCSELs
  // feeding coherent combiners and one BPD per row.
  const std::size_t reduce_vcsels =
      config_.lanes * config_.feature_lanes * config_.reduce_branches;
  r.add("reduce-unit VCSELs", reduce_vcsels, d.vcsel_m2);
  r.add("reduce-unit balanced photodetectors", config_.lanes * config_.feature_lanes,
        d.balanced_pd_m2);
  r.add("update-unit SOAs", config_.lanes * config_.feature_lanes, d.soa_m2);
  r.add("edge-control + digital scheduling logic", 1, d.digital_logic_m2);
  r.add("feature buffer SRAM", config_.feature_buffer.capacity_bytes, d.sram_m2_per_byte);
  r.add("weight buffer SRAM", config_.weight_buffer.capacity_bytes, d.sram_m2_per_byte);
  r.add("edge buffer SRAM", config_.edge_buffer.capacity_bytes, d.sram_m2_per_byte);
  return r;
}

PerfReport GhostAccelerator::estimate(const gnn::GnnModelConfig& model,
                                      const graph::GraphDataset& dataset, std::size_t batch,
                                      AggregateCosting costing) const {
  LUMOS_EXPECTS(batch >= 1);
  const double bd = static_cast<double>(batch);
  const graph::CsrGraph& g = dataset.graph;
  PerfReport r;
  r.workload = model.name + "/" + dataset.name;
  r.platform = "GHOST";
  r.bits = config_.bits;
  r.op_count = gnn::model_op_count(model, dataset) * batch;

  PerfBreakdown& b = r.breakdown;
  const double rate = config_.symbol_rate_hz;
  const std::size_t kh = config_.array_rows;
  const std::size_t nh = config_.array_cols;
  const phot::BankOpCost reduce_pass = reduce_.pass_cost();
  const phot::DacModel dac(config_.bank.dac);
  const phot::AdcModel adc(config_.bank.adc);

  // Lane imbalance multiplies aggregate-phase latency when workload balancing
  // is off (paper Section V.D optimisations).
  const double imbalance =
      graph::lane_imbalance(g, config_.lanes, config_.workload_balancing);

  // Base reduce passes (one feature tile) summed over all vertices.  The
  // per-vertex contribution depends only on the degree, so the degree
  // histogram yields the same integer in O(distinct degrees); the per-layer
  // pass count is then this total times the layer's feature-tile count.
  std::size_t base_reduce_passes = 0;
  if (costing == AggregateCosting::kDegreeHistogram) {
    for (const graph::DegreeBucket& bucket : g.degree_histogram()) {
      // +1: self contribution joins the neighbour reduction.
      base_reduce_passes += bucket.count * reduce_.passes_for(bucket.degree + 1);
    }
  }

  // The tile count depends only on the graph and the lane/block
  // configuration, so it is counted once and reused by every layer (the
  // reference mode re-tiles per layer, as the original implementation did).
  const graph::PartitionConfig tiling{config_.lanes, config_.input_block_size};
  std::size_t hoisted_tiles = 0;
  if (costing == AggregateCosting::kDegreeHistogram && config_.buffer_and_partition) {
    hoisted_tiles = graph::tile_count(g, tiling);
  }

  double total_latency = 0.0;
  for (const gnn::GnnLayerConfig& layer : model.layers_for(dataset)) {
    const std::size_t din = layer.in_dim;
    const std::size_t dout = layer.out_dim;
    const std::size_t v = g.node_count();
    double layer_compute_s = 0.0;

    // ---- Phase ordering ----
    // Every supported combine is linear, so aggregation commutes with the
    // transform; GHOST schedules the transform first whenever the output is
    // narrower than the input (always true for GAT, which scores transformed
    // features).  Aggregating on the narrow side shrinks both the reduce-unit
    // work and the partial-aggregate footprint that must stay on chip.
    const bool transform_first = layer.kind == gnn::GnnKind::kGat || dout < din;
    const std::size_t agg_dim = transform_first ? dout : din;
    const std::size_t feature_tiles =
        (agg_dim + config_.feature_lanes - 1) / config_.feature_lanes;
    std::size_t reduce_passes = 0;
    if (costing == AggregateCosting::kDegreeHistogram) {
      reduce_passes = base_reduce_passes * feature_tiles;
    } else {
      for (std::size_t node = 0; node < v; ++node) {
        const std::size_t deg =
            g.degree(static_cast<graph::NodeId>(node)) + 1;  // + self contribution
        reduce_passes += reduce_.passes_for(deg) * feature_tiles;
      }
    }
    // Each batched inference runs its own reduce passes through the lanes.
    reduce_passes *= batch;
    const double agg_t = std::ceil(static_cast<double>(reduce_passes) /
                                   static_cast<double>(config_.lanes)) /
                         rate * imbalance;
    layer_compute_s += agg_t;
    b.aggregation_time_s += agg_t;
    b.aggregation_energy_j += static_cast<double>(reduce_passes) * reduce_pass.dynamic_energy_j;

    // ---- Combine phase (transform units) ----
    const std::size_t tiles_k = (din + kh - 1) / kh;
    const std::size_t tiles_n = (dout + nh - 1) / nh;
    const std::size_t sage_mult = layer.kind == gnn::GnnKind::kGraphSage ? 2 : 1;
    const std::size_t combine_passes = v * tiles_k * sage_mult * tiles_n * batch;
    const double combine_t = std::ceil(static_cast<double>(combine_passes) /
                                       static_cast<double>(config_.transform_arrays())) /
                             rate;
    layer_compute_s += combine_t;
    b.matmul_time_s += combine_t;
    // Weight-stationary dataflow: inputs, read-outs, and laser per vertex
    // pass; weight imprints once per tile reprogram per array.  Weight-DAC
    // sharing drives all lanes' arrays from one DAC bank, dividing the
    // conversion energy by the lane count.  Partially filled edge tiles only
    // pay for the rows/columns they actually use.
    const phot::MrBankArray::PassEnergies& pe = pass_energies_;
    const double kd = static_cast<double>(kh);
    const double nd = static_cast<double>(nh);
    const double frac_k = static_cast<double>(din * sage_mult) /
                          static_cast<double>(tiles_k * sage_mult * kh);
    const double frac_n = static_cast<double>(dout) / static_cast<double>(tiles_n * nh);
    const double input_dac_j = pe.input_dac_j * frac_k;
    const double readout_j = pe.adc_j * frac_n;
    const double laser_j = pe.laser_j * frac_k * frac_n;
    const double tile_reprograms = static_cast<double>(tiles_k * sage_mult * tiles_n) *
                                   static_cast<double>(config_.transform_arrays());
    double weight_dac_j = tile_reprograms * pe.weight_dac_j * frac_k * frac_n;
    if (config_.weight_dac_sharing) {
      weight_dac_j /= static_cast<double>(config_.lanes);
    }
    // Input rows are imprinted once per K-tile and broadcast to the arrays
    // covering the parallel column tiles; every batched inference imprints
    // its own inputs (only the weights stay stationary).
    const double input_charges = static_cast<double>(v * tiles_k * sage_mult) * bd;
    b.laser_dac_adc_energy_j += input_charges * input_dac_j +
                                static_cast<double>(combine_passes) * (readout_j + laser_j) +
                                weight_dac_j;
    b.partial_sum_energy_j += static_cast<double>(v * dout) * bd *
                              static_cast<double>(tiles_k > 0 ? tiles_k - 1 : 0) *
                              config_.partial_sum_add_energy_j;

    // ---- GAT attention scores ----
    if (layer.kind == gnn::GnnKind::kGat) {
      const std::size_t score_dots = (g.edge_count() + v) * layer.gat_heads * 2;
      const std::size_t dot_passes =
          ((score_dots + nh - 1) / nh) * ((dout + kh - 1) / kh) * batch;
      const double att_t = static_cast<double>(dot_passes) / rate;
      layer_compute_s += att_t;
      b.matmul_time_s += att_t;
      // The attention vectors (a_src/a_dst) are stationary per head; the
      // transformed features stream through as inputs.
      b.laser_dac_adc_energy_j +=
          static_cast<double>(dot_passes) * (input_dac_j + readout_j + laser_j) +
          static_cast<double>(layer.gat_heads) * 2.0 * kd * dac.energy_per_conversion_j();
      (void)nd;
      const std::size_t sm_elems = (g.edge_count() + v) * layer.gat_heads * batch;
      layer_compute_s += softmax_.latency_s(sm_elems);
      b.softmax_time_s += softmax_.latency_s(sm_elems);
      b.softmax_energy_j += softmax_.energy_j(sm_elems);
    }

    // ---- Update phase ----
    const std::size_t update_elems = v * dout * batch;
    layer_compute_s += update_.latency_s(update_elems);
    b.elementwise_time_s += update_.latency_s(update_elems);
    b.elementwise_energy_j += update_.energy_j(update_elems);

    // ---- Memory traffic ----
    // Edge list: one read per edge (ids) from the edge buffer.
    const double edge_words =
        static_cast<double>(g.edge_count()) * 4.0 * bd /
        static_cast<double>(config_.edge_buffer.word_bytes);
    b.sram_energy_j += edge_words * edge_buffer_.read_energy_j();
    // Feature fetches: every (edge, feature) byte flows through the feature
    // buffer, once per batched inference.
    const double feat_bytes = static_cast<double>(g.edge_count() + v) *
                              static_cast<double>(agg_dim) * bd;
    b.sram_energy_j += feat_bytes /
                       static_cast<double>(config_.feature_buffer.word_bytes) *
                       feature_buffer_.read_energy_j();

    // DRAM traffic.  With buffer-and-partition, tiles are walked in
    // input-block-major order: each input block streams on-chip exactly once
    // per layer while every output block's partial aggregate accumulates
    // against it — one sequential sweep of the feature matrix.  Without it,
    // irregular per-edge accesses miss according to the buffer-capacity
    // hit-rate model.
    const double node_feature_bytes = static_cast<double>(v) * static_cast<double>(din);
    double dram_bytes = 0.0;
    if (config_.buffer_and_partition) {
      const std::size_t tiles = costing == AggregateCosting::kDegreeHistogram
                                    ? hoisted_tiles
                                    : graph::partition_reference(g, tiling).tiles.size();
      const std::size_t input_blocks =
          (v + config_.input_block_size - 1) / config_.input_block_size;
      const double block_bytes =
          static_cast<double>(config_.input_block_size) * static_cast<double>(din);
      // Partial aggregates for all output vertices must stay resident during
      // the sweep; when they exceed the feature buffer, the sweep splits into
      // output-super-blocks and input blocks re-stream once per super-block.
      const double partial_bytes = static_cast<double>(v) * static_cast<double>(agg_dim);
      const double capacity = static_cast<double>(config_.feature_buffer.capacity_bytes);
      const double super_blocks = std::max(1.0, std::ceil(partial_bytes / capacity));
      dram_bytes = std::min(static_cast<double>(input_blocks) * block_bytes * super_blocks,
                            static_cast<double>(tiles) * block_bytes) *
                   bd;
    } else {
      const double capacity = static_cast<double>(config_.feature_buffer.capacity_bytes);
      const double hit_rate = std::min(1.0, capacity / std::max(node_feature_bytes, 1.0));
      dram_bytes = (static_cast<double>(g.edge_count()) * static_cast<double>(din) *
                        (1.0 - hit_rate) +
                    node_feature_bytes) *
                   bd;
    }
    // Weights stream once per layer.
    const double weight_bytes =
        static_cast<double>(din * sage_mult) * static_cast<double>(dout);
    dram_bytes += weight_bytes;
    const double dram_t = dram_.transfer_latency_s(static_cast<std::size_t>(dram_bytes));
    b.dram_energy_j += dram_.transfer_energy_j(static_cast<std::size_t>(dram_bytes));
    b.memory_stall_s += std::max(0.0, dram_t - layer_compute_s);

    total_latency += std::max(layer_compute_s, dram_t);
  }

  r.latency_s = total_latency;
  r.set_energy_totals(static_power_w());
  return r;
}

nn::Matrix GhostAccelerator::aggregate_photonic(const gnn::GnnLayerWeights& weights,
                                                const graph::CsrGraph& graph,
                                                const nn::Matrix& features, Rng& rng,
                                                const phot::AnalogNoiseConfig& noise) const {
  const gnn::GnnLayerConfig& cfg = weights.config;
  const std::size_t n = graph.node_count();
  const std::size_t din = cfg.in_dim;

  // Normalise the whole feature tensor into the optical window.
  const double scale = std::max(features.max_abs(), 1e-12);
  std::vector<double> gathered;

  switch (cfg.kind) {
    case gnn::GnnKind::kGcn: {
      nn::Matrix agg(n, din);
      for (std::size_t v = 0; v < n; ++v) {
        const auto vd = static_cast<double>(graph.degree(static_cast<graph::NodeId>(v)) + 1);
        const auto nbrs = graph.neighbors(static_cast<graph::NodeId>(v));
        for (std::size_t c = 0; c < din; ++c) {
          gathered.clear();
          gathered.push_back(features(v, c) / vd / scale);  // self, pre-scaled by gather MR
          for (const graph::NodeId u : nbrs) {
            const auto ud = static_cast<double>(graph.degree(u) + 1);
            gathered.push_back(features(u, c) / std::sqrt(vd * ud) / scale);
          }
          agg(v, c) = reduce_.reduce(gathered, gnn::Reduction::kSum, rng, noise) * scale;
        }
      }
      return agg;
    }
    case gnn::GnnKind::kGraphSage: {
      nn::Matrix concat(n, 2 * din);
      for (std::size_t v = 0; v < n; ++v) {
        const auto nbrs = graph.neighbors(static_cast<graph::NodeId>(v));
        for (std::size_t c = 0; c < din; ++c) {
          concat(v, c) = features(v, c);
          gathered.clear();
          for (const graph::NodeId u : nbrs) gathered.push_back(features(u, c) / scale);
          concat(v, din + c) =
              gathered.empty()
                  ? 0.0
                  : reduce_.reduce(gathered, cfg.reduction, rng, noise) * scale;
        }
      }
      return concat;
    }
    case gnn::GnnKind::kGin: {
      // The (1+eps) self-weighting is applied by the gather MR, so the
      // optical window must cover the boosted magnitude.
      const double gin_scale = scale * (1.0 + weights.gin_eps);
      nn::Matrix agg(n, din);
      for (std::size_t v = 0; v < n; ++v) {
        const auto nbrs = graph.neighbors(static_cast<graph::NodeId>(v));
        for (std::size_t c = 0; c < din; ++c) {
          gathered.clear();
          gathered.push_back((1.0 + weights.gin_eps) * features(v, c) / gin_scale);
          for (const graph::NodeId u : nbrs) gathered.push_back(features(u, c) / gin_scale);
          agg(v, c) = reduce_.reduce(gathered, gnn::Reduction::kSum, rng, noise) * gin_scale;
        }
      }
      return agg;
    }
    case gnn::GnnKind::kGat:
      LUMOS_ENSURES(false);  // GAT aggregation handled inline in forward()
  }
  return {};
}

nn::Matrix GhostAccelerator::forward(const gnn::GnnModelWeights& weights,
                                     const graph::CsrGraph& graph, const nn::Matrix& features,
                                     Rng& rng, const phot::AnalogNoiseConfig& noise) const {
  nn::Matrix h = features;
  for (std::size_t li = 0; li < weights.layers.size(); ++li) {
    const gnn::GnnLayerWeights& layer = weights.layers[li];
    const gnn::GnnLayerConfig& cfg = layer.config;
    const bool last = li + 1 == weights.layers.size();
    nn::Matrix out;

    if (cfg.kind == gnn::GnnKind::kGat) {
      // Transform first, then attention-weighted photonic aggregation.
      const nn::Matrix t = tron::photonic_matmul(h, layer.w, transform_array_, rng, noise);
      const double tscale = std::max(t.max_abs(), 1e-12);
      out = nn::Matrix(graph.node_count(), cfg.out_dim);
      // Score dot products run on the score bank in chunks of its wavelength
      // count, with digital partial-sum accumulation (same streaming pattern
      // as every other long dot product).
      const std::size_t kw = score_bank_.width();
      std::vector<double> scores;
      std::vector<double> contrib;
      std::vector<double> a_vec(kw);
      std::vector<double> row_norm(kw);
      const auto chunked_dot = [&](const nn::Matrix& a, std::size_t head,
                                   const nn::Matrix& feats, std::size_t node,
                                   double a_max) {
        double acc = 0.0;
        for (std::size_t c0 = 0; c0 < cfg.out_dim; c0 += kw) {
          const std::size_t ct = std::min(kw, cfg.out_dim - c0);
          for (std::size_t c = 0; c < ct; ++c) {
            a_vec[c] = a(c0 + c, head) / a_max;
            row_norm[c] = feats(node, c0 + c) / tscale;
          }
          acc += score_bank_.dot(std::span<const double>(row_norm.data(), ct),
                                 std::span<const double>(a_vec.data(), ct), rng, noise);
        }
        return acc * a_max * tscale;
      };
      for (std::size_t head = 0; head < cfg.gat_heads; ++head) {
        for (std::size_t v = 0; v < graph.node_count(); ++v) {
          const auto nbrs = graph.neighbors(static_cast<graph::NodeId>(v));
          // Photonic score dot products: a_src . h_v and a_dst . h_u.
          const double a_src_max = std::max(layer.gat_a_src.max_abs(), 1e-12);
          const double a_dst_max = std::max(layer.gat_a_dst.max_abs(), 1e-12);
          const double src_score = chunked_dot(layer.gat_a_src, head, t, v, a_src_max);
          const auto score_of = [&](graph::NodeId u) {
            const double s = chunked_dot(layer.gat_a_dst, head, t, u, a_dst_max);
            const double e = src_score + s;
            return e > 0.0 ? e : 0.2 * e;  // LeakyReLU
          };
          scores.assign(nbrs.size() + 1, 0.0);
          scores[0] = score_of(static_cast<graph::NodeId>(v));
          for (std::size_t i = 0; i < nbrs.size(); ++i) scores[i + 1] = score_of(nbrs[i]);
          softmax_.apply(scores);  // digital LUT softmax
          // Weighted photonic aggregation per output feature.
          const double head_w = 1.0 / static_cast<double>(cfg.gat_heads);
          for (std::size_t c = 0; c < cfg.out_dim; ++c) {
            contrib.clear();
            contrib.push_back(scores[0] * t(v, c) / tscale);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
              contrib.push_back(scores[i + 1] * t(nbrs[i], c) / tscale);
            }
            out(v, c) += head_w * tscale *
                         reduce_.reduce(contrib, gnn::Reduction::kSum, rng, noise);
          }
        }
      }
    } else {
      const nn::Matrix agg = aggregate_photonic(layer, graph, h, rng, noise);
      out = tron::photonic_matmul(agg, layer.w, transform_array_, rng, noise);
    }

    if (!last) {
      // Update phase: SOA ReLU on normalised values.
      const double uscale = std::max(out.max_abs(), 1e-12);
      for (double& x : out.flat()) {
        x = update_.activate_relu(std::clamp(x / uscale, -1.0, 1.0)) * uscale;
      }
    }
    h = out;
  }
  return h;
}

}  // namespace lumos::ghost
