// Declared lock hierarchy for the lock_order_extract.py fixture ctests
// (tools/CMakeLists.txt). Never compiled: the extractor parses it as
// the src/ of a fixture tree, so the observed_*.json dumps next to this
// tree are diffed against a hierarchy that does not move with the live
// code. It declares one cross-class edge in each syntax the extractor
// reads — the comment form and the same-class attribute form — plus a
// class no edge names.
#pragma once

#include "common/thread_annotations.hpp"

namespace fixture {

struct Outer {
  // ACQUIRED_BEFORE("Fixture::Inner::mu")
  mutable veridp::Mutex mu{"Fixture::Outer::mu"};
};

struct Inner {
  mutable veridp::Mutex mu{"Fixture::Inner::mu"};
};

struct Pair {
  veridp::Mutex first ACQUIRED_BEFORE(second){"Fixture::Pair::first"};
  veridp::Mutex second{"Fixture::Pair::second"};
};

struct Loner {
  mutable veridp::Mutex mu{"Fixture::Loner::mu"};
};

}  // namespace fixture
