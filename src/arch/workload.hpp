// Tagged workload value type for the accelerator abstraction layer.
//
// A `Workload` is one inference job an accelerator can be asked to serve:
// either a transformer configuration (TRON-class fabrics) or a GNN model
// bound to a graph dataset (GHOST-class fabrics).  The variants live in a
// tagged union, so a workload carries exactly the state its kind needs —
// replacing the old `serve::ServeWorkload` struct whose dual members were
// half-unused per instance.  GNN workloads hold their dataset by shared
// reference: catalogs, caches, and fleet simulations all score the same
// generated graph without copying it.
#pragma once

#include <memory>
#include <string>
#include <variant>

#include "gnn/models.hpp"
#include "graph/generators.hpp"
#include "nn/transformer.hpp"

namespace lumos::arch {

enum class WorkloadKind { kTransformer, kGnn };

[[nodiscard]] const char* workload_kind_name(WorkloadKind kind) noexcept;

class Workload {
 public:
  [[nodiscard]] static Workload transformer(std::string name, nn::TransformerConfig config);
  [[nodiscard]] static Workload gnn(std::string name, gnn::GnnModelConfig model,
                                    std::shared_ptr<const graph::GraphDataset> dataset);
  // Convenience: takes ownership of a dataset value.
  [[nodiscard]] static Workload gnn(std::string name, gnn::GnnModelConfig model,
                                    graph::GraphDataset dataset);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] WorkloadKind kind() const noexcept;

  // A copy of this workload with its transformer sequence length replaced —
  // the serving layer's per-request sequence-length plumbing (a request that
  // sampled seq 384 scores the entry's model at seq 384).  GNN workloads have
  // no sequence dimension and throw `InvalidArgument` naming the workload.
  [[nodiscard]] Workload with_seq_len(std::size_t seq_len) const;

  // Variant accessors; asking a workload for the other kind's state throws
  // `InvalidArgument` naming the workload and its actual kind.
  [[nodiscard]] const nn::TransformerConfig& transformer_config() const;
  [[nodiscard]] const gnn::GnnModelConfig& gnn_model() const;
  [[nodiscard]] const graph::GraphDataset& dataset() const;

 private:
  struct TransformerJob {
    nn::TransformerConfig config;
  };
  struct GnnJob {
    gnn::GnnModelConfig model;
    std::shared_ptr<const graph::GraphDataset> dataset;
  };

  Workload(std::string name, std::variant<TransformerJob, GnnJob> job);

  [[nodiscard]] const GnnJob& gnn_job() const;

  std::string name_;
  std::variant<TransformerJob, GnnJob> job_;
};

}  // namespace lumos::arch
