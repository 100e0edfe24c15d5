// R3.dispatch: the dispatcher may not include compute-layer headers --
// execution reaches it only through worker processes and shard files.
#include "engine/lane_engine.hpp"

void dispatch_computing_in_process() {}
