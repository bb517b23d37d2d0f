// Alias of the JSON codec under its former serve-local name.  The codec
// lives in util/json.hpp; this header remains only because the end-to-end
// benchmark driver (perfbench/cpp) includes it.  Nothing in src/, tools/ or
// tests/ includes it.
#pragma once

#include "util/json.hpp"

namespace hpcfail::serve {

using util::JsonValue;

}  // namespace hpcfail::serve
