#include "sim/soa.h"

namespace dynet::sim {

SoAModel::~SoAModel() = default;

void SoAModel::exportMetrics(
    NodeId v, std::vector<std::pair<std::string, double>>& out) const {
  (void)v;
  (void)out;
}

// Out-of-line so process.h can declare the factory hook against an
// incomplete SoAModel.
std::unique_ptr<SoAModel> ProcessFactory::createSoA(NodeId num_nodes) const {
  (void)num_nodes;
  return nullptr;
}

}  // namespace dynet::sim
