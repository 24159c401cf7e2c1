package baseline

import "asap/internal/cluster"

// DediNodes is d's dedicated relay nodes.
func DediNodes(d *Dedi) []cluster.HostID { return d.nodes }
