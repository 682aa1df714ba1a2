package dta

// History exposes an analyzer's faulty-domain pipeline history (the state
// each AnalyzeStream shard starts from and ends with) to the external
// tests.
func (a *Analyzer) History() []uint64 { return a.history(nil) }
