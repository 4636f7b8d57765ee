"""Figure-regeneration benchmark for the ProFess reproduction."""
