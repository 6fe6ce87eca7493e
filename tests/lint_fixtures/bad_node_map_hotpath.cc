// Seeded violation for veridp_lint's hot-path-node-map rule: this file
// is marked hot-path, so the node-based containers below must be
// rejected (a hash, a bucket division and a pointer chase per probe).
// An allow without a justification does not count. Never compiled;
// linted by ctest.
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

// veridp-lint: hot-path

struct PortTable {
  // BAD: probed once per hop.
  std::unordered_map<int, int> peer;
  // BAD: ordered map, same pointer chase.
  std::map<int, int> by_port;
  // BAD: the allow names no reason.
  // veridp-lint: allow(hot-path-node-map)
  std::unordered_set<int> edge;

  // OK: an off-path use, justified.
  // veridp-lint: allow(hot-path-node-map, set-up only)
  std::unordered_map<int, int> names;
};

}  // namespace fixture
