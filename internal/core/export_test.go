package core

// ChainMismatch exposes the chain-versus-per-count differential check to
// the external test package, which can import the workload generators.
var ChainMismatch = chainMismatch
