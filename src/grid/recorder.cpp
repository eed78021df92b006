#include "grid/recorder.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace vmap::grid {

TraceRecorder::TraceRecorder(std::vector<std::size_t> nodes)
    : nodes_(std::move(nodes)) {
  VMAP_REQUIRE(!nodes_.empty(), "trace recorder needs at least one node");
}

void TraceRecorder::observe(const linalg::Vector& all_voltages) {
  for (std::size_t node : nodes_) {
    VMAP_REQUIRE(node < all_voltages.size(), "watched node out of range");
    data_.push_back(all_voltages[node]);
  }
  ++samples_;
}

linalg::Vector TraceRecorder::trace(std::size_t watched_index) const {
  VMAP_REQUIRE(watched_index < nodes_.size(), "watched index out of range");
  linalg::Vector t(samples_);
  for (std::size_t s = 0; s < samples_; ++s)
    t[s] = data_[s * nodes_.size() + watched_index];
  return t;
}

linalg::Matrix TraceRecorder::as_matrix() const {
  linalg::Matrix m(nodes_.size(), samples_);
  for (std::size_t s = 0; s < samples_; ++s)
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      m(i, s) = data_[s * nodes_.size() + i];
  return m;
}

linalg::Vector TraceRecorder::min_per_node() const {
  VMAP_REQUIRE(samples_ > 0, "no samples recorded");
  linalg::Vector mins(nodes_.size(), std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s < samples_; ++s)
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      mins[i] = std::min(mins[i], data_[s * nodes_.size() + i]);
  return mins;
}

MapSampler::MapSampler(std::vector<std::size_t> nodes, std::size_t stride,
                       std::size_t phase)
    : nodes_(std::move(nodes)), stride_(stride), phase_(phase) {
  VMAP_REQUIRE(!nodes_.empty(), "map sampler needs at least one node");
  VMAP_REQUIRE(stride_ >= 1, "stride must be >= 1");
}

void MapSampler::observe(const linalg::Vector& all_voltages) {
  const bool keep = seen_ >= phase_ && (seen_ - phase_) % stride_ == 0;
  ++seen_;
  if (!keep) return;
  for (std::size_t node : nodes_) {
    VMAP_REQUIRE(node < all_voltages.size(), "watched node out of range");
    data_.push_back(all_voltages[node]);
  }
  ++kept_;
}

linalg::Matrix MapSampler::as_matrix() const {
  linalg::Matrix m(nodes_.size(), kept_);
  for (std::size_t s = 0; s < kept_; ++s)
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      m(i, s) = data_[s * nodes_.size() + i];
  return m;
}

}  // namespace vmap::grid
