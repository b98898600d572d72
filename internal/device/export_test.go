package device

// Devices returns the number of member devices.
func (s *Stripe) Devices() int { return len(s.devs) }
