// Former name of util/json.hpp, kept as a forwarding header for includers
// outside the library (the repo benchmark under perfbench/ includes it for
// jsonu::format_double).  New code includes util/json.hpp.
#pragma once

#include "util/json.hpp"
