package slsfs

import "aurora/internal/objstore"

// Store exposes the underlying object store (the SLS orchestrator shares it).
func (fs *FS) Store() *objstore.Store { return fs.store }
