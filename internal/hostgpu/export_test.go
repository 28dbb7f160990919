package hostgpu

// TimingKey exposes the timing-cache key to the external key tests.
func (g *GPU) TimingKey(l *Launch) (string, bool) {
	key, ok := g.timingKey(nil, l)
	return string(key), ok
}
