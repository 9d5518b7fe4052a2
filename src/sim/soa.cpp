#include "sim/soa.h"

namespace dynet::sim {

SoAModel::~SoAModel() = default;

// Out-of-line so process.h can declare the factory hook against an
// incomplete SoAModel.
std::unique_ptr<SoAModel> ProcessFactory::createSoA(NodeId num_nodes) const {
  (void)num_nodes;
  return nullptr;
}

}  // namespace dynet::sim
