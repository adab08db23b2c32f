// The benchmark is a module of its own so that it builds from its own
// directory (`go run -C bench .`) and stays out of the root module's
// `./...`; the engine it measures is the checkout it sits in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
