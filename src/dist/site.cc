#include "dist/site.h"

#include "common/string_util.h"

namespace skalla {

std::vector<int> SiteSet::ReplicaIds(size_t partition) const {
  std::vector<int> ids{primaries_[partition].id()};
  auto it = replicas_.find(partition);
  if (it != replicas_.end()) {
    for (const Site& replica : it->second) ids.push_back(replica.id());
  }
  return ids;
}

Status SiteSet::Prepare() const {
  for (const auto& entry : replicas_) {
    if (entry.first >= primaries_.size()) {
      return Status::InvalidArgument(
          StrCat("replica registered for partition ", entry.first,
                 " but only ", primaries_.size(), " partitions exist"));
    }
  }
  return Status::OK();
}

}  // namespace skalla
