package bytecode

// CheckEventParity lets the external test package, which can import the
// benchmark sources, run the per-event contract.
var CheckEventParity = checkEventParity
