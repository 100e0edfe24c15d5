// R3.layering fixture: obs/ including an engine decision header would let
// telemetry feed back into execution.
#include "engine/lane_engine.hpp"

int fixture_peek() { return 0; }
