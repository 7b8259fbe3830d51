#include "arch/workload.hpp"

#include "common/error.hpp"

namespace lumos::arch {

const char* workload_kind_name(WorkloadKind kind) noexcept {
  return kind == WorkloadKind::kTransformer ? "transformer" : "gnn";
}

Workload::Workload(std::string name, std::variant<TransformerJob, GnnJob> job)
    : name_(std::move(name)), job_(std::move(job)) {}

Workload Workload::transformer(std::string name, nn::TransformerConfig config) {
  return Workload(std::move(name), TransformerJob{std::move(config)});
}

Workload Workload::gnn(std::string name, gnn::GnnModelConfig model,
                       std::shared_ptr<const graph::GraphDataset> dataset) {
  LUMOS_EXPECTS_MSG(dataset != nullptr, "GNN workload '" + name + "' needs a dataset");
  return Workload(std::move(name), GnnJob{std::move(model), std::move(dataset)});
}

Workload Workload::gnn(std::string name, gnn::GnnModelConfig model,
                       graph::GraphDataset dataset) {
  return gnn(std::move(name), std::move(model),
             std::make_shared<const graph::GraphDataset>(std::move(dataset)));
}

WorkloadKind Workload::kind() const noexcept {
  return std::holds_alternative<TransformerJob>(job_) ? WorkloadKind::kTransformer
                                                      : WorkloadKind::kGnn;
}

Workload Workload::with_seq_len(std::size_t seq_len) const {
  if (kind() != WorkloadKind::kTransformer) {
    throw InvalidArgument("workload '" + name_ + "' is a " + workload_kind_name(kind()) +
                          " workload and has no sequence length to override");
  }
  LUMOS_EXPECTS_MSG(seq_len >= 1, "with_seq_len needs seq_len >= 1");
  nn::TransformerConfig config = transformer_config();
  config.seq_len = seq_len;
  return transformer(name_, std::move(config));
}

const nn::TransformerConfig& Workload::transformer_config() const {
  const auto* job = std::get_if<TransformerJob>(&job_);
  if (job == nullptr) {
    throw InvalidArgument("workload '" + name_ + "' is a " + workload_kind_name(kind()) +
                          " workload, not a transformer workload");
  }
  return job->config;
}

const Workload::GnnJob& Workload::gnn_job() const {
  const auto* job = std::get_if<GnnJob>(&job_);
  if (job == nullptr) {
    throw InvalidArgument("workload '" + name_ + "' is a " + workload_kind_name(kind()) +
                          " workload, not a gnn workload");
  }
  return *job;
}

const gnn::GnnModelConfig& Workload::gnn_model() const { return gnn_job().model; }

const graph::GraphDataset& Workload::dataset() const { return *gnn_job().dataset; }

}  // namespace lumos::arch
