// Quickstart: fit sPCA on a small synthetic dataset and use the model.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The workflow is the library's canonical one:
//   1. wrap your data in a dist::DistMatrix (row-partitioned),
//   2. create a dist::Engine (the simulated Spark/MapReduce cluster),
//   3. run core::Spca::Solve,
//   4. use the PcaModel: components, Transform (dimensionality reduction),
//      and row reconstruction.

#include <cstdio>

#include "core/spca.h"
#include "dist/engine.h"
#include "workload/synthetic.h"

int main() {
  using namespace spca;

  // 1. Data: 2,000 points in 64 dimensions with a planted rank-4 structure
  //    (replace this with workload::LoadSparseBinary(...) or your own
  //    matrix for real data).
  workload::LowRankConfig data_config;
  data_config.rows = 2000;
  data_config.cols = 64;
  data_config.rank = 4;
  data_config.noise_stddev = 0.1;
  const dist::DistMatrix y = dist::DistMatrix::FromDense(
      workload::GenerateLowRank(data_config), /*num_partitions=*/8);

  // 2. Engine: an 8-node Spark-style cluster (the default ClusterSpec
  //    mirrors the paper's testbed).
  dist::Engine engine(dist::ClusterSpec{}, dist::EngineMode::kSpark);

  // 3. Fit: 4 principal components, up to 20 EM iterations, stopping once
  //    95% of the ideal accuracy is reached.
  core::SpcaOptions options;
  options.num_components = 4;
  options.max_iterations = 20;
  options.target_accuracy_fraction = 0.95;
  auto result = core::Spca(&engine, options).Solve(y);
  if (!result.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const core::PcaModel& model = result.value().model;

  std::printf("fitted %zu components over %zu dims in %d iterations\n",
              model.num_components(), model.input_dim(),
              result.value().iterations_run);
  std::printf("noise variance ss = %.5f\n", model.noise_variance);
  for (const auto& it : result.value().trace) {
    std::printf("  iteration %d: error %.4f (%.1f%% of ideal accuracy)\n",
                it.iteration, it.error, it.accuracy_percent);
  }

  // 4a. Dimensionality reduction: X is 2000 x 4, ready for downstream
  //     algorithms (k-means and friends).
  const linalg::DenseMatrix x = model.Transform(&engine, y);
  std::printf("reduced matrix: %zu x %zu\n", x.rows(), x.cols());

  // Variance captured by each component (scree data).
  const linalg::DenseVector variances = model.ExplainedVariances(&engine, y);
  std::printf("explained variance per component:");
  for (size_t j = 0; j < variances.size(); ++j) {
    std::printf(" %.3f", variances[j]);
  }
  std::printf("\n");

  // 4b. Reconstruction of one row from its 4 coordinates.
  const linalg::DenseMatrix basis = model.OrthonormalBasis();
  const linalg::DenseVector reconstructed =
      model.ReconstructRow(basis, x.RowVector(0));
  double diff2 = 0.0;
  double norm2 = 0.0;
  const linalg::DenseMatrix original = y.ToDenseSlice(0, 1);
  for (size_t j = 0; j < y.cols(); ++j) {
    const double delta = reconstructed[j] - original(0, j);
    diff2 += delta * delta;
    norm2 += original(0, j) * original(0, j);
  }
  std::printf("row 0 relative reconstruction error: %.4f\n",
              diff2 / norm2);

  // The engine accounted everything the "cluster" did:
  std::printf("cluster activity: %s\n",
              result.value().stats.ToString().c_str());
  return 0;
}
