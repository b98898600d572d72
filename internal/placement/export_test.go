package placement

// DeclareDead is the fail-stop path: an operator asserts the machine is
// gone and the coordinator acts immediately, without waiting out the
// missed heartbeats. Returns the resulting events.
func (c *Coordinator) DeclareDead(name string) []Event {
	n, ok := c.nodes[name]
	if !ok || n.dead {
		return nil
	}
	var evs []Event
	c.markDead(n, &evs)
	return evs
}
