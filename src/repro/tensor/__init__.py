"""Dense reference operators and the sparse libraries' conversion passes."""
