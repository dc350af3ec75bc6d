"""Federation substrate: messages, channels, clusters, event simulation,
fault injection, and reliable delivery."""
