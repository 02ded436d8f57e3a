package sysimage

// Hooks for the external test package, whose corpus-driven tests cannot
// live inside this package (the corpus generators import it).
var (
	DecodeNative = decodeNative
	DecodeOracle = decodeOracle
	NativeCases  = nativeCases
	DeclineCases = declineCases
)
