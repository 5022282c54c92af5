#include "dist/site.h"

#include "common/macros.h"
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

Status SiteSet::Prepare(bool columnar_sites) {
  for (const auto& entry : replicas_) {
    if (entry.first >= primaries_.size()) {
      return Status::InvalidArgument(
          StrCat("replica registered for partition ", entry.first,
                 " but only ", primaries_.size(), " partitions exist"));
    }
  }
  if (!columnar_sites) return Status::OK();
  auto warm = [](Site& site) {
    return site.columnar_enabled() ? Status::OK()
                                   : site.EnableColumnarCache();
  };
  for (Site& site : primaries_) SKALLA_RETURN_NOT_OK(warm(site));
  for (auto& entry : replicas_) {
    for (Site& replica : entry.second) SKALLA_RETURN_NOT_OK(warm(replica));
  }
  return Status::OK();
}

}  // namespace skalla
