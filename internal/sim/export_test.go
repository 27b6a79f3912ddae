package sim

// ResolveAuto reports the engine EngineAuto resolves cfg to and the
// mean first-wake gap the decision was based on, for the external
// pinning tests (auto_test.go), which need the scenario registry and so
// live outside the package.
func ResolveAuto(cfg Config) (Engine, float64, error) {
	var ex execution
	cfg.Engine = EngineAuto
	if err := ex.reset(cfg); err != nil {
		return EngineAuto, 0, err
	}
	return ex.resolveEngine(), ex.meanFirstGap(), nil
}
