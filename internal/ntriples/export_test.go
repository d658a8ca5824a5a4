package ntriples

// SetBuilderOnly turns the Lexer's substring fast paths off (true) or
// back on, for the external tests that drive it through the Turtle reader.
func SetBuilderOnly(on bool) { builderOnly = on }
