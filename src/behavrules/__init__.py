"""Non-redundant behavioral association rule mining for categorical event logs."""
