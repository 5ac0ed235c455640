"""Community-level attribute trend prediction from dynamic graph snapshots."""
