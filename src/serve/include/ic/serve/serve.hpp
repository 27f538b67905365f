// Umbrella header for the serving layer (DESIGN.md §9): model registry with
// hot-reload, inference engine (one queue, `jobs` workers, one circuit
// table), JSON-lines wire protocol, and the TCP server/client pair.
#pragma once

#include "ic/serve/client.hpp"
#include "ic/serve/engine.hpp"
#include "ic/serve/model_registry.hpp"
#include "ic/serve/server.hpp"
#include "ic/serve/wire.hpp"
